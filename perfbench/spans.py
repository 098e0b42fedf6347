"""In-memory span recorder for the traced benchmark run.

The benchmark times the program from outside: :func:`install` wraps the
public functions of each layer (the ``TARGETS`` table) so every call
records a span — name, start, end, parent span and the id of the root
span it belongs to (one root per query or update).  Spans stay in memory
and are written out once, when the run ends.  The untraced run never
calls :func:`install`, so it executes the unwrapped program.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time

#: ``(module, attribute path, span name)`` — every binding the traced run
#: wraps.  Module-level functions are also replaced in every loaded
#: ``repro`` module that imported them by name, except ``laplace``, which
#: is wrapped only as bound in ``core.framework`` (the mechanism's noise
#: draws; other modules use it for baselines).
TARGETS = (
    ("repro.session.session", "PrivateSession.query", "query"),
    ("repro.session.session", "PrivateSession.submit", "query"),
    ("repro.session.session", "PrivateSession.apply_update", "session.update"),
    ("repro.session.cache", "CompiledRelationCache.get_or_build", "session.prepare"),
    ("repro.session.cache", "SharedCompiledCache.get_or_build", "session.prepare"),
    ("repro.session.cache", "DatasetCacheView.get_or_build", "session.prepare"),
    ("repro.session.accountant", "BudgetAccountant.reserve", "session.ledger"),
    ("repro.session.accountant", "Reservation.commit", "session.ledger"),
    ("repro.mechanisms.base", "PreparedQuery.release", "session.release"),
    ("repro.subgraphs.annotate", "subgraph_krelation", "subgraphs.enumerate"),
    ("repro.relax.encode", "EncodedRelation.__init__", "relax.encode"),
    ("repro.relax.encode", "EncodedRelation.from_conjunctions", "relax.encode"),
    ("repro.lp.compiled", "CompiledProgram.__init__", "lp.compile"),
    ("repro.lp.compiled", "CompiledProgram.solve_g_decide", "lp.g_probe"),
    ("repro.lp.compiled", "CompiledProgram.solve_g", "lp.g_probe"),
    ("repro.lp.compiled", "CompiledProgram.solve_g_feasible", "lp.g_probe"),
    ("repro.lp.compiled", "CompiledProgram.solve_h", "lp.h_solve"),
    ("repro.lp.compiled", "CompiledProgram.solve_many", "lp.h_solve"),
    ("repro.lp.compiled", "CompiledProgram.solve_x", "lp.x_solve"),
    ("repro.core.framework", "RecursiveMechanismBase.compute_delta", "core.delta"),
    ("repro.core.framework", "RecursiveMechanismBase.g_entry_leq", "core.g_predicate"),
    ("repro.core.framework", "RecursiveMechanismBase.h_entries", "core.x"),
    ("repro.relax.encode", "EncodedRelation.solve_x_relaxation", "core.x"),
    ("repro.core.framework", "laplace", "mechanisms.noise"),
    ("repro.dynamic.incremental", "IncrementalOccurrences.apply", "dynamic.apply"),
    ("repro.dynamic.versioned", "VersionedGraph.relation_for", "store.relation"),
)

#: Module-level functions wrapped only where ``TARGETS`` names them.
_UNSHARED = {"laplace"}


class Recorder:
    """Collects ``(span id, parent id, root id, name, start, end, attrs)``."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, describe=None):
        """``fn`` recording one span per call (``describe`` adds attrs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (None, None)
            span_id = next(self._ids)
            root = parent[1] if parent[1] is not None else span_id
            stack.append((span_id, root))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = describe(args, result) if describe is not None else None
            self.spans.append((span_id, parent[0], root, name, start, end, attrs))
            return result

        traced.__perfbench_wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _cache_hit(args, result):
    return {"hit": bool(result[1])}


def _tuples(args, result):
    return {"tuples": len(result)}


def _ball(args, result):
    info = args[0].maintenance_info() or []
    return {"ball": max((row.get("ball_last") or 0 for row in info), default=0)}


_DESCRIBE = {
    "session.prepare": _cache_hit,
    "subgraphs.enumerate": _tuples,
    "session.update": _ball,
}


def _binding(module_name, path):
    """``(owner, attribute, raw value)`` of one ``TARGETS`` binding."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def install(recorder):
    """Wrap every ``TARGETS`` binding; returns the number of wrappers."""
    import repro.cli  # noqa: F401  (load every module the CLI reaches)
    import repro.service  # noqa: F401

    installed = 0
    for module_name, path, name in TARGETS:
        owner, attr, raw = _binding(module_name, path)
        describe = _DESCRIBE.get(name)
        if isinstance(raw, classmethod):
            traced = recorder.wrap(raw.__func__, name, describe)
            setattr(owner, attr, classmethod(traced))
            installed += 1
            continue
        wrapped = recorder.wrap(raw, name, describe)
        setattr(owner, attr, wrapped)
        installed += 1
        if isinstance(owner, type) or attr in _UNSHARED:
            continue
        # module-level functions: also replace every `from ... import` copy
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, attr, None) is raw
            ):
                setattr(module, attr, wrapped)
                installed += 1
    return installed


def wrapped_bindings():
    """Names of ``TARGETS`` bindings currently wrapped (for the self-test)."""
    found = []
    for module_name, path, _ in TARGETS:
        raw = _binding(module_name, path)[2]
        raw = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(raw, "__perfbench_wrapped__"):
            found.append(f"{module_name}.{path}")
    return found


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(records, since=0.0):
    """Per-layer metrics (``BENCHMARK.json`` ``per_layer``) from the span
    records of every query and update that started at ``since`` or later.

    Timings are p50s over queries of each query's summed span time
    (0 for a query that never entered the layer), counts are means per
    query.  ``relax.encode_ms`` is self time (the compile it triggers is
    ``lp.compile_ms``); every other timing includes its callees.
    """
    spans = {record[0]: record for record in records}
    records = [record for record in records if spans[record[2]][4] >= since]
    by_root = {}
    child_time = {}
    for span_id, parent, root, name, start, end, attrs in records:
        by_root.setdefault(root, []).append(span_id)
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def outermost(span):
        parent = span[1]
        while parent is not None:
            if spans[parent][3] == span[3]:
                return False
            parent = spans[parent][1]
        return True

    above_lp = set()
    for span in records:
        if span[3].startswith("lp."):
            parent = span[1]
            while parent is not None and parent not in above_lp:
                above_lp.add(parent)
                parent = spans[parent][1]

    queries = [root for root in by_root if spans[root][3] == "query"]
    updates = [root for root in by_root if spans[root][3] == "session.update"]
    per_query = []
    covered = total = 0.0
    for root in queries:
        sums, calls, selfs = {}, {}, {}
        for span_id in by_root[root]:
            span = spans[span_id]
            name, duration = span[3], span[5] - span[4]
            own = duration - child_time.get(span_id, 0.0)
            selfs[name] = selfs.get(name, 0.0) + own
            if span_id != root:
                covered += own
            if outermost(span):
                sums[name] = sums.get(name, 0.0) + duration
                calls[name] = calls.get(name, 0) + 1
        total += spans[root][5] - spans[root][4]
        per_query.append((sums, calls, selfs))

    def p50_ms(name, scale=1e3, source=0):
        return _p50([entry[source].get(name, 0.0) * scale for entry in per_query])

    def per_query_mean(name):
        if not per_query:
            return 0.0
        return sum(entry[1].get(name, 0) for entry in per_query) / len(per_query)

    prepares = [
        span for span in records if span[3] == "session.prepare" and outermost(span)
    ]
    predicates = [span for span in records if span[3] == "core.g_predicate"]
    enumerations = [span for span in records if span[3] == "subgraphs.enumerate"]
    applies = [span for span in records if span[3] == "dynamic.apply"]
    bounded = sum(1 for span in predicates if span[0] not in above_lp)
    return {
        "subgraphs.enumerate_ms": p50_ms("subgraphs.enumerate"),
        "subgraphs.enumerate_calls": per_query_mean("subgraphs.enumerate"),
        "subgraphs.tuples": (
            sum(span[6]["tuples"] for span in enumerations) / len(per_query)
            if per_query
            else 0.0
        ),
        "relax.encode_ms": p50_ms("relax.encode", source=2),
        "lp.compile_ms": p50_ms("lp.compile"),
        "lp.g_probe_calls": per_query_mean("lp.g_probe"),
        "lp.g_probe_ms": p50_ms("lp.g_probe"),
        "lp.h_solve_calls": per_query_mean("lp.h_solve"),
        "lp.h_solve_ms": p50_ms("lp.h_solve"),
        "lp.x_solve_ms": p50_ms("lp.x_solve"),
        "core.delta_ms": p50_ms("core.delta"),
        "core.g_predicates": per_query_mean("core.g_predicate"),
        "core.g_bound_ratio": bounded / len(predicates) if predicates else 0.0,
        "core.x_ms": p50_ms("core.x"),
        "mechanisms.noise_us": p50_ms("mechanisms.noise", scale=1e6),
        "session.cache_hit_ratio": (
            sum(1 for span in prepares if span[6]["hit"]) / len(prepares)
            if prepares
            else 0.0
        ),
        "session.prepare_ms": p50_ms("session.prepare"),
        "session.ledger_us": p50_ms("session.ledger", scale=1e6),
        "session.release_ms": p50_ms("session.release"),
        "session.update_ms": _p50(
            [(spans[root][5] - spans[root][4]) * 1e3 for root in updates]
        ),
        "dynamic.apply_ms": _p50([(span[5] - span[4]) * 1e3 for span in applies]),
        "dynamic.ball_nodes": _p50([spans[root][6]["ball"] for root in updates]),
        "store.relation_ms": p50_ms("store.relation"),
        "trace.layer_share": covered / total if total else 0.0,
    }

