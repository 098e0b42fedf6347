"""The X-step envelope (``EfficientRecursiveMechanism._compute_x``).

A warm release answers Eq. 12 from the certified interval of an integral
minimiser ``t`` instead of solving the Eq. 20 LP.  The oracle here is the
LP path itself: a second mechanism over the same relation whose intervals
are emptied before every release.  Both must release byte-identical
answers and the same ``x_index`` at every seed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import PrivateSession, VersionedGraph
from repro.core.params import RecursiveMechanismParams
from repro.errors import MechanismError
from repro.graphs import random_graph_with_avg_degree

#: Releases per (query, privacy) family in the oracle comparison.
RELEASES = 1000

#: Graph per query: small enough that 2 x RELEASES LP-path releases stay
#: cheap, dense enough that the X LP has several integral minimisers.
FAMILIES = {
    "triangle": (24, 8),
    "2-triangle": (18, 6),
    "2-star": (14, 4),
}


def _mechanism(graph, query, privacy):
    return PrivateSession(graph).prepared(query, privacy=privacy).mechanism


def _count_lp_solves(mechanism):
    """Count X LP solves on ``mechanism`` (instance-level wrapper)."""
    encoded = mechanism._encoded
    solve = encoded.solve_x_relaxation
    calls = [0]

    def counted(delta_hat):
        calls[0] += 1
        return solve(delta_hat)

    encoded.solve_x_relaxation = counted
    return calls


@pytest.mark.parametrize("privacy", ["node", "edge"])
@pytest.mark.parametrize("query", sorted(FAMILIES))
def test_envelope_matches_lp_path(query, privacy):
    n, avgdeg = FAMILIES[query]
    graph = random_graph_with_avg_degree(n, avgdeg, rng=5)
    params = RecursiveMechanismParams.paper(1.0, node_privacy=privacy == "node")
    envelope = _mechanism(graph, query, privacy)
    lp_path = _mechanism(graph, query, privacy)
    assert envelope is not lp_path
    solves = _count_lp_solves(envelope)
    differing = []
    for seed in range(RELEASES):
        lp_path._x_intervals.clear()
        want = lp_path.run(params, np.random.default_rng(seed))
        got = envelope.run(params, np.random.default_rng(seed))
        if (got.answer.hex(), got.x_index) != (want.answer.hex(), want.x_index):
            differing.append(seed)
    assert differing == []
    # the comparison exercised the envelope, not only the fallback
    assert envelope._x_intervals
    assert solves[0] < 0.75 * RELEASES


@pytest.fixture(scope="module")
def triangle_edge():
    graph = random_graph_with_avg_degree(24, 8, rng=5)
    return graph, RecursiveMechanismParams.paper(1.0, node_privacy=False)


def test_full_participation_ray_extends_to_infinity(triangle_edge):
    graph, _ = triangle_edge
    mechanism = _mechanism(graph, "triangle", "edge")
    n = mechanism.num_participants
    solves = _count_lp_solves(mechanism)
    value, index = mechanism._compute_x(1e6)
    assert (index, solves[0]) == (float(n), 1)
    lo, hi, h_n = mechanism._x_intervals[n]
    assert (lo, hi) == (1e6, math.inf)
    assert h_n == mechanism.true_answer() == value
    # any larger Δ̂ is a hit: H_{|P|}, no LP
    assert mechanism._compute_x(1e12) == (value, float(n))
    assert solves[0] == 1


def _stub_relaxation(mechanism, i_prime, offset):
    """Make the X LP return ``i_prime`` with the relaxed value set
    ``offset`` below the integer optimum over its neighbours."""
    n = mechanism.num_participants
    candidates = sorted({math.floor(i_prime), math.ceil(i_prime)})

    def relaxation(delta_hat):
        best = min(mechanism.h_entry(i) + (n - i) * delta_hat for i in candidates)
        return best - offset, float(i_prime)

    mechanism._encoded.solve_x_relaxation = relaxation


def test_fractional_minimiser_is_never_recorded(triangle_edge):
    graph, _ = triangle_edge
    mechanism = _mechanism(graph, "triangle", "edge")
    _stub_relaxation(mechanism, 3.5, offset=0.0)
    mechanism._compute_x(2.0)
    assert mechanism._x_intervals == {}


def test_uncertified_solves_are_never_recorded(triangle_edge):
    graph, _ = triangle_edge
    mechanism = _mechanism(graph, "triangle", "edge")
    # the relaxed value above the integer one: the convexity guard
    # raises, and nothing is recorded
    _stub_relaxation(mechanism, 3.0, offset=-1.0)
    with pytest.raises(MechanismError, match="convexity violation"):
        mechanism._compute_x(2.0)
    assert mechanism._x_intervals == {}
    # the relaxed value well below it: no error, but the two disagree by
    # more than the guard's slack, so the solve certifies nothing
    _stub_relaxation(mechanism, 3.0, offset=1.0)
    mechanism._compute_x(2.0)
    assert mechanism._x_intervals == {}


def test_no_interval_survives_an_update():
    graph = VersionedGraph(random_graph_with_avg_degree(24, 8, rng=5))
    with PrivateSession(graph, rng=3) as session:
        for _ in range(20):
            session.query("triangle", privacy="edge", epsilon=1.0)
        before = session.prepared("triangle", privacy="edge").mechanism
        assert before._x_intervals
        u, v = next(iter(graph.edges()))
        # remove and restore one edge: the same graph at a new version
        session.apply_update([{"action": "remove_edge", "u": u, "v": v}])
        session.apply_update([{"action": "add_edge", "u": u, "v": v}])
        after = session.prepared("triangle", privacy="edge").mechanism
        assert after is not before
        assert after._x_intervals == {}
        session.query("triangle", privacy="edge", epsilon=1.0)
        assert session.verify_ledger()


def _lp_answer(graph, delta_hat):
    """``(X, x_index)`` from the LP path of a fresh mechanism."""
    return _mechanism(graph, "triangle", "edge")._solve_x(delta_hat)[:2]


def test_probe_at_the_crossing_closes_a_gap(triangle_edge):
    graph, _ = triangle_edge
    mechanism = _mechanism(graph, "triangle", "edge")
    mechanism._compute_x(3.7)
    mechanism._compute_x(4.3)
    below = max(t for t, (_, hi, _) in mechanism._x_intervals.items() if hi < 3.95)
    above = min(t for t, (lo, _, _) in mechanism._x_intervals.items() if lo > 3.95)
    assert above - below > 1
    crossing = (mechanism.h_entry(above) - mechanism.h_entry(below)) / (above - below)
    solves = _count_lp_solves(mechanism)
    assert mechanism._compute_x(3.95) == _lp_answer(graph, 3.95)
    assert solves[0] == 1
    # the two intervals now meet where their lines cross
    assert mechanism._x_intervals[below][1] == crossing
    assert mechanism._x_intervals[above][0] == crossing
    assert mechanism._compute_x(3.99) == _lp_answer(graph, 3.99)
    assert solves[0] == 1


def test_probe_against_the_full_participation_line(triangle_edge):
    graph, _ = triangle_edge
    mechanism = _mechanism(graph, "triangle", "edge")
    n = mechanism.num_participants
    _, t = mechanism._compute_x(5.5)
    assert t < n
    crossing = (mechanism.h_entry(n) - mechanism.h_entry(int(t))) / (n - t)
    solves = _count_lp_solves(mechanism)
    assert mechanism._compute_x(8.0) == _lp_answer(graph, 8.0)
    assert solves[0] == 1
    # the ray of t = |P| now starts at the crossing
    assert mechanism._x_intervals[n][:2] == (crossing, math.inf)


def test_adjacent_intervals_need_no_lp(triangle_edge):
    graph, _ = triangle_edge
    mechanism = _mechanism(graph, "triangle", "edge")
    mechanism._compute_x(4.7)
    mechanism._compute_x(5.5)
    solves = _count_lp_solves(mechanism)
    for delta_hat in (4.8, 4.95, 5.0, 5.05, 5.6):
        assert mechanism._compute_x(delta_hat) == _lp_answer(graph, delta_hat)
    assert solves[0] == 0


def test_a_fractional_probe_leaves_the_gap_open(triangle_edge):
    graph, _ = triangle_edge
    mechanism = _mechanism(graph, "triangle", "edge")
    mechanism._compute_x(3.7)
    mechanism._compute_x(4.3)
    intervals = dict(mechanism._x_intervals)
    below = max(t for t, (_, hi, _) in intervals.items() if hi < 3.95)
    above = min(t for t, (lo, _, _) in intervals.items() if lo > 3.95)
    # a piece strictly between the two lines at every Δ̂, fractional
    _stub_relaxation(mechanism, below + 1.5, offset=1e-3)
    solves = _count_lp_solves(mechanism)
    mechanism._compute_x(3.95)
    # the probe, then the LP path at Δ̂; neither records anything
    assert solves[0] == 2
    assert (below, above) in mechanism._x_open_gaps
    assert mechanism._x_intervals == intervals
    # an open gap is not probed again
    mechanism._compute_x(3.96)
    assert solves[0] == 3
