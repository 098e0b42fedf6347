"""The efficient recursive mechanism for sensitive K-relations (Sec. 5).

``H_i`` (Eq. 16) and the 2-bounding ``G_i`` (Eq. 19) are evaluated as linear
programs over the φ-epigraph encoding (:mod:`repro.relax.encode`).  The
Δ search touches ``O(log(ln G/β))`` G-entries (Sec. 5.3); the X step solves
the continuous relaxation Eq. 20 as a single LP and then uses convexity of
``H`` (Lemma 10) to restrict the integer argmin to ``{⌊i'⌋, ⌈i'⌉}``.

Overall cost is a polynomial of the total annotation length ``L`` — this is
the mechanism that makes node-differentially-private subgraph counting
practical (Theorem 6).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

from ..errors import LPError, MechanismError
from ..obs import metrics as obs_metrics
from ..relax.encode import EncodedRelation
from ..rng import RngLike
from .framework import MechanismResult, RecursiveMechanismBase, _index_key
from .params import RecursiveMechanismParams
from .queries import CountQuery, LinearQuery
from .sensitive import SensitiveKRelation

__all__ = ["EfficientRecursiveMechanism", "private_linear_query"]


def _convex_upper(known, i):
    """Chord upper bound on a convex sequence at ``i`` from exact points.

    ``known`` is a sorted list of ``(index, value)`` pairs.  Returns None
    when ``i`` is not bracketed (cannot happen once 0 and |P| are seeded).
    """
    left = right = None
    for index, value in known:
        if index <= i:
            left = (index, value)
        if index >= i and right is None:
            right = (index, value)
    if left is None or right is None:
        return None
    (il, gl), (ir, gr) = left, right
    if il == ir:
        return gl
    return gl + (i - il) * (gr - gl) / (ir - il)


def _convex_lower(known, i):
    """Secant lower bound on a convex nondecreasing sequence at ``i``.

    Combines monotonicity (the largest exact value left of ``i``) with
    outward secant extrapolation: slopes of a convex function increase,
    so the slope of the segment right of ``i`` is at least the chord
    slope of any segment further right, and symmetrically on the left.
    """
    best = 0.0
    below = [(index, value) for index, value in known if index <= i]
    above = [(index, value) for index, value in known if index >= i]
    if below:
        best = max(best, below[-1][1])  # monotone in i
        if len(below) >= 2:
            (i0, g0), (i1, g1) = below[-2], below[-1]
            if i1 > i0:
                best = max(best, g1 + (i - i1) * (g1 - g0) / (i1 - i0))
    if len(above) >= 2:
        (i1, g1), (i2, g2) = above[0], above[1]
        if i2 > i1:
            best = max(best, g1 - (i1 - i) * (g2 - g1) / (i2 - i1))
    return best


class EfficientRecursiveMechanism(RecursiveMechanismBase):
    """LP-based recursive mechanism for a nonnegative linear query.

    Parameters
    ----------
    relation:
        The sensitive K-relation ``(P, R)``.
    query:
        The nonnegative per-tuple weight ``q+`` (default: counting).
    backend:
        LP backend; defaults to SciPy/HiGHS.
    normalize:
        If True, rewrite all annotations to canonical minimal DNF before
        encoding (guarantees ``S ≤ 1`` and safe annotations for hand-built
        relations; algebra-produced annotations are already safe, and for
        subgraph-counting relations they are already DNF).
    compiled:
        Route solves through the one-time-assembled
        :class:`~repro.lp.compiled.CompiledProgram` when the backend
        supports it (default).  ``False`` forces the legacy
        clone-and-rebuild LP path (ablations / equivalence tests).
    workers:
        Worker processes for batched H entries, which fan across a pool
        forked after compilation.  The default ``1`` stays fully in-process;
        ``None`` resolves ``$REPRO_WORKERS`` / CPU count
        (:func:`repro.parallel.pool.resolve_workers`).  Released answers
        are byte-identical for any worker count at a fixed seed.
    bounding:
        Which bounding sequence to use for the Δ computation:

        * ``"paper"`` — Eq. 19 exactly.  **Erratum** (DESIGN.md §6): for
          annotations containing disjunctions this sequence can violate
          Def. 17, inflating the effective ε1 by a data-dependent factor;
          for conjunctive annotations (all subgraph counting) it is sound
          and much tighter.
        * ``"uniform"`` — the sound ``Ĝ_i = 2·S̄·H_i`` sequence: valid for
          arbitrary annotations, looser on conjunctive ones.
        * ``"auto"`` (default) — ``"paper"`` when every annotation is a
          conjunction of variables, ``"uniform"`` otherwise.
    """

    def __init__(
        self,
        relation: SensitiveKRelation,
        query: Optional[LinearQuery] = None,
        backend=None,
        normalize: bool = False,
        bounding: str = "auto",
        s_bar=None,
        compiled: bool = True,
        workers: Optional[int] = 1,
    ):
        super().__init__()
        from ..parallel.pool import resolve_workers

        self.workers = resolve_workers(workers)
        if bounding not in ("paper", "uniform", "auto"):
            raise MechanismError(
                f"bounding must be 'paper', 'uniform' or 'auto', got {bounding!r}"
            )
        if normalize:
            relation = relation.normalized()
        self.relation = relation
        self.query = query or CountQuery()
        from ..lp.backends import resolve as resolve_backend
        from ..store.relation import ConjunctiveKRelation

        backend = resolve_backend(backend)
        if (isinstance(relation, ConjunctiveKRelation)
                and type(self.query) is CountQuery):
            # Columnar-store relations arrive as a participant-index
            # matrix; encode it without ever materializing per-occurrence
            # annotation objects.  Every annotation is by construction a
            # conjunction of distinct variables, so "auto" bounding is
            # "paper" with no inspection pass.
            self._encoded = EncodedRelation.from_conjunctions(
                relation.sorted_participants,
                relation.matrix,
                backend,
                compiled=compiled,
            )
            if bounding == "auto":
                bounding = "paper"
        else:
            annotated = [
                (annotation, self.query(tup)) for tup, annotation in relation.items()
            ]
            self._encoded = EncodedRelation(
                sorted(relation.participants),
                annotated,
                backend,
                compiled=compiled,
            )
            if bounding == "auto":
                from ..boolexpr.transform import is_conjunction_of_vars

                bounding = (
                    "paper"
                    if all(
                        is_conjunction_of_vars(annotation)
                        for _, annotation in relation.items()
                    )
                    else "uniform"
                )
        self.bounding = bounding
        #: query-level φ-sensitivity cap for the "uniform" bounding mode;
        #: falls back to the max over the current annotations (see
        #: EncodedRelation.solve_g_uniform for the neighbor-consistency
        #: caveat — pass the query-derived constant for strict ε-DP).
        self.s_bar = s_bar
        #: The X-step envelope: integral minimiser ``t`` of Eq. 20 →
        #: ``(smallest Δ̂, largest Δ̂, H_t)`` over the certified LP solves
        #: that returned ``i' = t`` (see :meth:`_compute_x`).
        self._x_intervals: Dict[int, Tuple[float, float, float]] = {}
        #: Neighbour pairs ``(a, b)`` whose crossing probe found only a
        #: fractional piece of ``X_rel`` between them (see :meth:`_probe_gap`).
        self._x_open_gaps: Set[Tuple[int, int]] = set()

    # -- framework plumbing -------------------------------------------------------
    @property
    def num_participants(self) -> int:
        return self._encoded.num_participants

    def _h_entry(self, i: int) -> float:
        return self._encoded.solve_h(i)

    def _h_entries(self, indices) -> list:
        # route the framework's batched cache misses through the encoded
        # relation's entry point; with workers > 1 the misses fan across
        # a pool forked after compilation
        return self._encoded.solve_h_many(indices, workers=self.workers)

    def _g_entry(self, i: int) -> float:
        if self.bounding == "uniform":
            return self._encoded.solve_g_uniform(i, s_bar=self.s_bar)
        return self._encoded.solve_g(i)

    def _g_predicate(self, i: int, threshold: float) -> bool:
        """``G_i ≤ threshold``, exact at every step.

        1. ``G`` is convex and nondecreasing in ``i`` (the LP value as a
           function of the mass RHS), so chords between known exact
           entries upper-bound it and outward secants lower-bound it —
           both decide the predicate with no LP at all.
        2. Otherwise one exact ``G_i`` solve decides it
           (``CompiledProgram.solve_g_decide``; the G model resumes from
           the basis of the previous probe).
        3. Every exact entry (endpoints are closed forms) is cached and
           tightens the bounds for later probes.

        Each call adds one to ``repro_delta_predicates_total`` labelled
        ``decided="bound"`` or ``decided="lp"``.
        """
        registry = obs_metrics()
        if self.bounding == "uniform":
            # Ĝ = 2·S̄·H — one (cheap) H solve; keep the exact entry cached
            registry.counter("repro_delta_predicates_total", decided="lp").inc()
            return self.g_entry(i) <= threshold
        # endpoints are closed forms — seed the bound cache for free
        self.g_entry(0)
        self.g_entry(self.num_participants)
        known = sorted(self._g_cache.items())
        upper = _convex_upper(known, i)
        if upper is not None and upper <= threshold:
            decided = True
        elif _convex_lower(known, i) > threshold:
            decided = False
        else:
            registry.counter("repro_delta_predicates_total", decided="lp").inc()
            decided, value = self._encoded.g_decide(i, threshold)
            if value is not None:
                self._g_cache[_index_key(i)] = float(value)
            return decided
        registry.counter("repro_delta_predicates_total", decided="bound").inc()
        return decided

    def compute_delta(self, params: RecursiveMechanismParams) -> Tuple[float, int]:
        """Eq. 11 (see the base class).  The G model's retained basis
        serves the probes of one search and is freed after it: resumed
        probes solve the unpresolved program, and keeping that simplex
        state through the X step raised the cold benchmark mix's peak
        memory by about 15 MB.  A later search (another ε) starts cold,
        with every exact entry of this one still cached."""
        try:
            return super().compute_delta(params)
        finally:
            self._encoded.release_g_model()

    def true_answer(self) -> float:
        """``q(supp(R)) = H_{|P|}`` (Theorem 3) without solving an LP."""
        return self._encoded.true_answer()

    def _compute_x(self, delta_hat: float) -> Tuple[float, float]:
        """Eq. 12 via Eq. 20: one LP plus at most two cached H-entries.

        ``X_rel(Δ̂) = min_t H(t) + (|P|−t)·Δ̂`` is concave and piecewise
        linear in Δ̂ (Lemma 10).  If the LP returned the integral minimiser
        ``i' = t`` at two values of Δ̂, concavity forces
        ``X_rel = H_t + (|P|−t)·Δ̂`` everywhere between them, and ``t`` is
        then also the integer argmin.  So each certified solve widens the
        envelope interval of its ``t``, and a Δ̂ inside an interval is
        answered from the cached ``H_t`` with no LP — the same float
        expression and index the LP path computes.  ``X_rel`` is
        nondecreasing and bounded by ``H_{|P|}``, so the interval of
        ``t = |P|`` extends to ``+∞``.  A Δ̂ between two intervals first
        tries to close that gap by probing (:meth:`_probe_gap`); every
        other Δ̂ solves the LP.
        """
        hit = self._envelope(delta_hat)
        if hit is None and self._x_intervals:
            hit = self._probe_gap(delta_hat)
        if hit is not None:
            return hit
        best_value, best_index, _ = self._solve_x(delta_hat)
        return best_value, best_index

    def _solve_x(self, delta_hat: float) -> Tuple[float, float, float]:
        """The LP path: ``(X, x_index, relaxed X)`` at Δ̂; a certified
        solve widens the interval of its ``t``."""
        n = self.num_participants
        relaxed_value, i_prime = self._encoded.solve_x_relaxation(delta_hat)
        candidates = sorted(
            {
                max(0, min(n, int(math.floor(i_prime)))),
                max(0, min(n, int(math.ceil(i_prime)))),
                max(0, min(n, int(round(i_prime)))),
            }
        )
        best_value = math.inf
        best_index = float(candidates[0])
        for i, h_value in zip(candidates, self.h_entries(candidates)):
            value = h_value + (n - i) * delta_hat
            if value < best_value:
                best_value = value
                best_index = float(i)
        # The integer optimum can never beat the continuous relaxation.
        # The slack term scales with |P|: solver feasibility tolerance
        # (~1e-7 per coefficient) accumulates across the n-term mass row,
        # so million-participant LPs legitimately over-shoot by ~1e-4.
        slack = 1e-6 * max(1.0, abs(relaxed_value)) + 1e-9 * n
        if best_value < relaxed_value - slack:
            raise MechanismError(
                "convexity violation in X computation: integer value "
                f"{best_value} below relaxed value {relaxed_value}"
            )
        if best_index == i_prime and abs(best_value - relaxed_value) <= slack:
            # certified: i' is integral, it is the integer argmin, and the
            # relaxed and integer values agree — widen t's interval
            t = int(i_prime)
            lo, hi, _ = self._x_intervals.get(t, (delta_hat, delta_hat, None))
            hi = math.inf if t == n else max(hi, delta_hat)
            self._x_intervals[t] = (min(lo, delta_hat), hi, self.h_entry(t))
        return best_value, best_index, relaxed_value

    def _envelope(self, delta_hat: float) -> Optional[Tuple[float, float]]:
        """``(X, x_index)`` from the interval holding Δ̂, or None."""
        n = self.num_participants
        # list() copies under the GIL: a concurrent recording cannot
        # resize the dict mid-scan (a lost widening only costs hits)
        for t, (lo, hi, h_value) in list(self._x_intervals.items()):
            if lo <= delta_hat <= hi:
                return h_value + (n - t) * delta_hat, float(t)
        return None

    def _probe_gap(self, delta_hat: float) -> Optional[Tuple[float, float]]:
        """Certify the gap holding Δ̂ by probing where its sides cross.

        The gap lies between the intervals of ``a`` (below Δ̂) and ``b``
        (above it); a missing side is the line of ``t = 0`` or
        ``t = |P|``.  The two lines cross at ``Δ* = (H_b − H_a)/(b − a)``.
        If the LP at ``Δ*`` attains them there, concavity gives
        ``X_rel = H_a + (|P|−a)·Δ̂`` from ``a``'s interval up to ``Δ*`` and
        the line of ``b`` from ``Δ*`` on, with a unique minimiser inside
        each piece (a line touching ``X_rel`` there has the same slope);
        for ``a = 0`` (``b = |P|``) the piece reaches down to 0 (up to
        ``+∞``), as no line is steeper (flatter).  Otherwise the probe is
        a certified solve at ``Δ*`` of a piece in between, which splits
        the gap, and the half holding Δ̂ is probed next; a gap whose probe
        finds no integral piece is left open for the LP path.  Each probe
        either closes a gap or records a piece, so the probes over a
        mechanism's life are bounded by twice its integral pieces.

        A gap between ``a`` and ``b = a + 1`` needs no probe: the LP's
        ``i'`` is nondecreasing in Δ̂ (exchange the optimal solutions at
        two values of Δ̂), so it stays in ``[a, b]`` across the gap, and
        the LP path's answer is the smaller of the two lines, ties to
        ``a`` — also where the piece between them is fractional.

        Returns ``(X, x_index)`` once Δ̂ is covered, else None.
        """
        n = self.num_participants
        while True:
            intervals = dict(self._x_intervals)
            below = [(hi, t) for t, (_, hi, _) in intervals.items() if hi < delta_hat]
            above = [(lo, t) for t, (lo, _, _) in intervals.items() if lo > delta_hat]
            a = max(below)[1] if below else 0
            b = min(above)[1] if above else n
            if a >= b:
                return None
            h_a, h_b = self.h_entry(a), self.h_entry(b)
            if b - a == 1:
                # i' stays in [a, b] across the gap, so the LP path's
                # candidates are a and b: answer from their two lines
                value_a = h_a + (n - a) * delta_hat
                value_b = h_b + (n - b) * delta_hat
                return (value_b, float(b)) if value_b < value_a else (value_a, float(a))
            if (a, b) in self._x_open_gaps:
                return None
            crossing = (h_b - h_a) / (b - a)
            start = intervals[a][1] if below else 0.0
            end = intervals[b][0] if above else math.inf
            value = None
            if start <= crossing <= end:
                try:
                    _, _, value = self._solve_x(crossing)
                except (LPError, MechanismError):  # the LP path reports it
                    pass
            if value is None:
                self._x_open_gaps.add((a, b))
                return None
            line = h_a + (n - a) * crossing
            if abs(value - line) <= 1e-6 * max(1.0, abs(value)) + 1e-9 * n:
                # a sentinel side has no interval yet: it starts at 0 / +∞
                lo_a = intervals[a][0] if a in intervals else 0.0
                hi_b = intervals[b][1] if b in intervals else math.inf
                self._x_intervals[a] = (lo_a, crossing, h_a)
                self._x_intervals[b] = (crossing, hi_b, h_b)
                return self._envelope(delta_hat)
            if self._x_intervals.keys() == intervals.keys():
                # the piece at Δ* is fractional: nothing splits the gap
                self._x_open_gaps.add((a, b))
                return None

    # -- diagnostics ---------------------------------------------------------------
    @property
    def lp_size(self) -> int:
        """Number of LP variables in the encoding (``O(L)``, Sec. 5.3)."""
        return self._encoded.num_lp_variables

    @property
    def is_compiled(self) -> bool:
        """Whether solves go through the compiled array fast path."""
        return self._encoded.is_compiled


def private_linear_query(
    relation: SensitiveKRelation,
    epsilon: float,
    query: Optional[LinearQuery] = None,
    node_privacy: bool = False,
    rng: RngLike = None,
    backend=None,
    params: Optional[RecursiveMechanismParams] = None,
    workers: Optional[int] = 1,
) -> MechanismResult:
    """One-call convenience wrapper: build the mechanism and run it once.

    Uses the paper's experimental parameter settings
    (:meth:`RecursiveMechanismParams.paper`) unless ``params`` is given.
    ``workers`` is forwarded to :class:`EfficientRecursiveMechanism`.

    A thin wrapper over a one-query
    :class:`~repro.session.PrivateSession`; answers are byte-identical to
    the direct mechanism path at a fixed seed.  For several queries of one
    relation, hold a session yourself — repeats reuse the compiled LP.
    """
    from ..session import PrivateSession

    session = PrivateSession(relation, backend=backend, workers=workers)
    return session.query(
        query,
        epsilon=epsilon,
        privacy="node" if node_privacy else "edge",
        rng=rng,
        params=params,
    )
