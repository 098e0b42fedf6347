"""The Δ search against an exhaustive Eq. 11 oracle.

The mechanism finds ``j* = min{j : G_{|P|-j} ≤ e^{jβ}θ}`` by a binary
search that decides most predicates from convexity bounds and the rest
with exact ``G_i`` probes, each resuming from the simplex basis the
previous probe left.  The oracle solves ``G_i`` at every index cold, one
fresh :meth:`~repro.lp.scipy_backend.ScipyBackend.solve_arrays` call
each, and scans ``j`` exhaustively.  Both must give the same ``j*`` and
Δ, and the released answers at fixed seeds must equal ``RECORDED``: the
answers of the feasibility-race Δ search this one replaced, on the same
graphs, seeds and ε.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import PrivateSession, VersionedGraph
from repro.core.params import RecursiveMechanismParams
from repro.graphs import random_graph_with_avg_degree
from repro.lp import ScipyBackend
from repro.store.relation import ConjunctiveKRelation

#: ``query/privacy`` → ``(nodes, average degree, graph seed)``; the
#: ``versioned/`` case reads its relation from the columnar store.
CASES = {
    "triangle/node": (20, 6, 3),
    "triangle/edge": (20, 6, 3),
    "2-triangle/node": (16, 6, 4),
    "2-triangle/edge": (16, 6, 4),
    "2-star/node": (14, 4, 5),
    "2-star/edge": (14, 4, 5),
    "versioned/triangle/edge": (30, 6, 11),
}
EPSILONS = (0.5, 1.0, 2.0)
SEEDS = (0, 1, 2)

#: ``(ε, seed, j*, Δ.hex(), answer.hex())`` per release, in release order.
RECORDED = {
    "2-star/edge": [
        (0.5, 0, 9, "0x1.3ad44655c78bcp+1", "0x1.2bfc3c4fccc0ep+5"),
        (0.5, 1, 9, "0x1.3ad44655c78bcp+1", "0x1.4a75e4aa778e5p+6"),
        (0.5, 2, 9, "0x1.3ad44655c78bcp+1", "0x1.cd68c62f51eccp+4"),
        (1.0, 0, 7, "0x1.0388657115a48p+2", "0x1.b692145bcc90cp+5"),
        (1.0, 1, 7, "0x1.0388657115a48p+2", "0x1.74d96df527081p+6"),
        (1.0, 2, 7, "0x1.0388657115a48p+2", "0x1.7e5c863545778p+5"),
        (2.0, 0, 5, "0x1.d8e64b8d4ddaep+2", "0x1.c3a7e1801d6b8p+5"),
        (2.0, 1, 5, "0x1.d8e64b8d4ddaep+2", "0x1.75be0bb2a8226p+6"),
        (2.0, 2, 5, "0x1.d8e64b8d4ddaep+2", "0x1.e13303f4a00fdp+5"),
    ],
    "2-star/node": [
        (0.5, 0, 4, "0x1.7de8392fbbfe0p+0", "0x1.2ca3854f99413p+3"),
        (0.5, 1, 4, "0x1.7de8392fbbfe0p+0", "0x1.c492c8169ff6cp+5"),
        (0.5, 2, 4, "0x1.7de8392fbbfe0p+0", "0x1.0c9a9d302ce22p+3"),
        (1.0, 0, 4, "0x1.1cde866fe46e9p+1", "0x1.324b432254464p+4"),
        (1.0, 1, 4, "0x1.1cde866fe46e9p+1", "0x1.ac84db6567e0dp+5"),
        (1.0, 2, 4, "0x1.1cde866fe46e9p+1", "0x1.0307e93b96b61p+4"),
        (2.0, 0, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.4150526cf5f9bp+5"),
        (2.0, 1, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.367353362bb05p+6"),
        (2.0, 2, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.067e3a1a448b6p+5"),
    ],
    "2-triangle/edge": [
        (0.5, 0, 6, "0x1.d27660b11a9f0p+0", "0x1.9f55fb87e87c9p+3"),
        (0.5, 1, 6, "0x1.d27660b11a9f0p+0", "0x1.7c608a2a30a90p+5"),
        (0.5, 2, 6, "0x1.d27660b11a9f0p+0", "0x1.50da81b6148fap+3"),
        (1.0, 0, 5, "0x1.5bf0a8b145769p+1", "0x1.717049246cd83p+4"),
        (1.0, 1, 5, "0x1.5bf0a8b145769p+1", "0x1.7f0839a2e430cp+5"),
        (1.0, 2, 5, "0x1.5bf0a8b145769p+1", "0x1.20ef986b0a746p+4"),
        (2.0, 0, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.38f27d706ef33p+5"),
        (2.0, 1, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.e65c45d0a87a2p+5"),
        (2.0, 2, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.ef530422dec92p+4"),
    ],
    "2-triangle/node": [
        (0.5, 0, 3, "0x1.599058c8c1a96p+0", "0x1.c6b669b3ee608p+1"),
        (0.5, 1, 3, "0x1.599058c8c1a96p+0", "0x1.75a51fa4c5414p+5"),
        (0.5, 2, 3, "0x1.599058c8c1a96p+0", "0x1.fe2082469dc52p+1"),
        (1.0, 0, 3, "0x1.d27660b11a9f0p+0", "0x1.68d0cb3f3966ap+3"),
        (1.0, 1, 3, "0x1.d27660b11a9f0p+0", "0x1.3ba8ced07a426p+5"),
        (1.0, 2, 3, "0x1.d27660b11a9f0p+0", "0x1.1b6c927736c14p+3"),
        (2.0, 0, 3, "0x1.a8f99761065a6p+1", "0x1.62fd22c4044e2p+4"),
        (2.0, 1, 3, "0x1.a8f99761065a6p+1", "0x1.7a50503e934fep+5"),
        (2.0, 2, 3, "0x1.a8f99761065a6p+1", "0x1.256474e30856ep+4"),
    ],
    "triangle/edge": [
        (0.5, 0, 7, "0x1.01c2a61268987p+1", "0x1.80207db2c81e4p+4"),
        (0.5, 1, 7, "0x1.01c2a61268987p+1", "0x1.f86fb74cd83f2p+5"),
        (0.5, 2, 7, "0x1.01c2a61268987p+1", "0x1.78634be7be871p+4"),
        (1.0, 0, 6, "0x1.a8f99761065a6p+1", "0x1.b529f298dd7ccp+4"),
        (1.0, 1, 6, "0x1.a8f99761065a6p+1", "0x1.e46e5342b69bcp+5"),
        (1.0, 2, 6, "0x1.a8f99761065a6p+1", "0x1.dddadc0c2699ep+4"),
        (2.0, 0, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.d460005065d76p+4"),
        (2.0, 1, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.b07cd1c83692ep+5"),
        (2.0, 2, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.fbfb71537e7eap+4"),
    ],
    "triangle/node": [
        (0.5, 0, 4, "0x1.7de8392fbbfe0p+0", "0x1.0e7ad4fe5d7b9p+3"),
        (0.5, 1, 4, "0x1.7de8392fbbfe0p+0", "0x1.c1273271b6d81p+5"),
        (0.5, 2, 4, "0x1.7de8392fbbfe0p+0", "0x1.1dca58e151f20p+3"),
        (1.0, 0, 4, "0x1.1cde866fe46e9p+1", "0x1.224b432254466p+4"),
        (1.0, 1, 4, "0x1.1cde866fe46e9p+1", "0x1.a484db6567e0ep+5"),
        (1.0, 2, 4, "0x1.1cde866fe46e9p+1", "0x1.e60fd2772d6c6p+3"),
        (2.0, 0, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.98ef988cb5c66p+4"),
        (2.0, 1, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.09b46ad3b8fccp+6"),
        (2.0, 2, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.b07c9faf8313ep+4"),
    ],
    "versioned/triangle/edge": [
        (0.5, 0, 10, "0x1.5bf0a8b145769p+1", "0x1.642e6ab6eede4p+5"),
        (0.5, 1, 10, "0x1.5bf0a8b145769p+1", "0x1.87927d28e64bap+6"),
        (0.5, 2, 10, "0x1.5bf0a8b145769p+1", "0x1.6d40d973466e5p+5"),
        (1.0, 0, 7, "0x1.0388657115a48p+2", "0x1.84fbda3ad4e7cp+5"),
        (1.0, 1, 7, "0x1.0388657115a48p+2", "0x1.64d8a504325d9p+6"),
        (1.0, 2, 7, "0x1.0388657115a48p+2", "0x1.9eb0a3a10db29p+5"),
        (2.0, 0, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.a230002832ebbp+5"),
        (2.0, 1, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.343e68e41b497p+6"),
        (2.0, 2, 4, "0x1.3cfe7bb5b37ecp+2", "0x1.b5fdb8a9bf3f5p+5"),
    ],
}


def _mechanism(case, backend):
    query, privacy = case.split("/")[-2:]
    nodes, degree, seed = CASES[case]
    graph = random_graph_with_avg_degree(nodes, degree, rng=seed)
    if case.startswith("versioned/"):
        graph = VersionedGraph(graph, store="columnar")
    session = PrivateSession(graph, backend=backend)
    mechanism = session.prepared(query, privacy=privacy).mechanism
    if case.startswith("versioned/"):
        assert isinstance(mechanism.relation, ConjunctiveKRelation)
    return mechanism, privacy == "node"


def _cold_g(mechanism):
    """``G_i`` for every ``i`` in ``0..|P|``, each a fresh linprog."""
    program = mechanism._encoded._compiled
    program._build_g_overlay()
    c, a_ub, b_ub, a_eq, bounds = program._g_overlay
    oracle = ScipyBackend()
    values = []
    for i in range(mechanism.num_participants + 1):
        solution = oracle.solve_arrays(
            c, a_ub, b_ub, a_eq, np.array([float(i)]), bounds
        )
        assert solution.is_optimal, (i, solution.status)
        values.append(max(0.0, 2.0 * solution.objective))
    return values


def _exhaustive_j_star(g_values, params):
    n = len(g_values) - 1
    return min(
        j
        for j in range(n + 1)
        if g_values[n - j] <= math.exp(j * params.beta) * params.theta
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_delta_search_matches_exhaustive_scan(case, lp_backend):
    mechanism, node = _mechanism(case, lp_backend)
    g_values = _cold_g(mechanism)
    released = []
    for epsilon in EPSILONS:
        params = RecursiveMechanismParams.paper(epsilon, node_privacy=node)
        j_star = _exhaustive_j_star(g_values, params)
        delta = math.exp(j_star * params.beta) * params.theta
        assert mechanism.compute_delta(params) == (delta, j_star)
        for seed in SEEDS:
            result = mechanism.run(params, np.random.default_rng(seed))
            assert (result.delta, result.j_star) == (delta, j_star)
            released.append((epsilon, seed, j_star, delta.hex(), result.answer.hex()))
    assert released == RECORDED[case]
    # the search probed G with LPs, not only with closed forms and bounds
    assert len(mechanism._g_cache) > 2
