"""The repository benchmark: ``cold``, ``warm`` and ``live`` workloads.

Usage::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` wraps each
layer's public functions (``spans.TARGETS``) and reports the per-layer
metrics instead.  End-to-end times are scaled to nominal host speed,
measured by a reference chunk run between operations (``end_to_end``).
Either way the outputs are checked, and the last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Earlier lines carry the environment and the run's details (sample
counts, the tail percentile, failed fraction, check results, tracing
overhead, host slowness and the unscaled end-to-end values).  A failed
output check exits 1; a checkout without the program's sources exits 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Metric names and units (BENCHMARK.json) and the per-workload record.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def tail_ms(samples, percentile):
    """``(value, samples beyond it)`` at a fixed percentile (inf = failed)."""
    import numpy as np

    ordered = np.sort(np.asarray(samples, dtype=float))
    value = float(np.percentile(ordered, percentile, method="higher"))
    return value, int(np.count_nonzero(ordered > value))


def checks(run):
    """``({check: passed}, labels of the first mismatches)`` for one run."""
    wrong = [
        label
        for label, wire, local in run.answers or ()
        if float(wire).hex() != float(local).hex()
    ]
    wrong += [label for label, got, want in run.counts if got != want]
    spent, granted = run.ledger
    result = {
        "counts_match": bool(run.counts)
        and all(got == want for _, got, want in run.counts),
        "ledger_matches_grants": granted > 0
        and math.isclose(spent, granted, rel_tol=1e-12),
    }
    if run.answers is not None:
        result["answers_identical"] = bool(run.answers) and all(
            float(wire).hex() == float(local).hex() for _, wire, local in run.answers
        )
    if run.versions is not None:
        result["version_matches_updates"] = run.versions[0] == run.versions[1]
    return result, wrong[:20]


#: Nominal time of one ``workloads.reference_chunk``, in ms.
REFERENCE_MS = 10.0


def host_slowness(run):
    """Median reference chunk time of the run over ``REFERENCE_MS``
    (above 1: the host ran slower than nominal during the run)."""
    return statistics.median(run.reference_ms) / REFERENCE_MS


def measured(run, workload):
    """The end-to-end metrics as timed on the host, unscaled."""
    import numpy as np

    spec = SPEC["workloads"][workload]
    done = run.attempted - run.failed
    query_tail, _ = tail_ms(run.query_ms, spec["query_tail_percentile"])
    return {
        "setup_s": run.setup_s,
        "ops_per_s": done / run.wall_s,
        "query_p50_ms": float(np.median(run.query_ms)),
        "query_tail_ms": query_tail,
        "peak_rss_mb": run.rss_mb,
    }


def end_to_end(run, workload):
    """The end-to-end metrics at nominal host speed: every time divided,
    and the rate multiplied, by ``host_slowness``.  The host's speed
    drifts by 20-40 % over minutes, which unscaled times carry from run
    to run; the reference chunk runs no program code, so a change to the
    program moves these numbers as it moves the unscaled ones."""
    values = measured(run, workload)
    slowness = host_slowness(run)
    for name in ("setup_s", "query_p50_ms", "query_tail_ms"):
        values[name] /= slowness
    values["ops_per_s"] *= slowness
    return values


def per_layer(run):
    import numpy as np

    import spans

    metrics = spans.layer_metrics(run.spans or [], since=run.timed_from)
    server = run.service.get("server_ms", 0.0)
    metrics["service.server_ms"] = server
    metrics["service.admission_wait_ms"] = run.service.get("admission_wait_ms", 0.0)
    # client round trip minus server time, both as means over the phase
    wire = float(np.mean(run.query_ms)) - server
    metrics["service.wire_ms"] = wire if server else 0.0
    if run.update_ms:
        metrics["update.p50_ms"] = float(np.median(run.update_ms))
        metrics["update.tail_ms"] = tail_ms(run.update_ms, 90)[0]
    else:
        metrics["update.p50_ms"] = metrics["update.tail_ms"] = 0.0
    return metrics


def environment(run, seed):
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = completed.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lp_backend": run.lp_backend,
        "commit": commit,
        "seed": seed,
    }


def measure(workload, seed, seconds, traced, workdir):
    import workloads

    if workload == "cold":
        recorder = None
        if traced:
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
        return workloads.run_cold(seed, seconds, recorder=recorder)
    runner = workloads.run_warm if workload == "warm" else workloads.run_live
    return runner(seed, seconds, workdir, traced=traced)


def report(workload, run, traced):
    """``(detail, result)``: the run's details and the final result object
    (its metrics are the end-to-end set, or the per-layer set if traced)."""
    results, wrong = checks(run)
    names = "per_layer" if traced else "end_to_end"
    values = per_layer(run) if traced else end_to_end(run, workload)
    units = {entry["name"]: entry["unit"] for entry in BENCHMARK[names]}
    percentile = SPEC["workloads"][workload]["query_tail_percentile"]
    detail = {
        "workload": workload,
        "trace": int(traced),
        "queries": len(run.query_ms),
        "updates": len(run.update_ms),
        "query_tail_percentile": percentile,
        "query_tail_beyond": tail_ms(run.query_ms, percentile)[1],
        "failed_frac": run.failed / max(1, run.attempted),
        "checks": results,
        "checked": {"answers": len(run.answers or ()), "counts": len(run.counts)},
        "mismatches": wrong,
        "server_wrappers": run.service.get("wrappers"),
        "host_slowness": host_slowness(run),
        "reference_chunks": len(run.reference_ms),
        "unscaled": measured(run, workload),
    }
    if run.update_ms:
        detail["update_p50_ms"] = statistics.median(run.update_ms)
        detail["update_tail_ms"] = tail_ms(run.update_ms, 90)[0]
    result = {
        "correct": all(results.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # One core for the benchmark, the server it starts (children inherit
    # the affinity) and the reference chunk: a shared host's cores drift
    # in speed independently, so the chunk must run where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    workdir = workloads.workdir_for(args.workload)
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail, result = report(args.workload, run, args.trace)
    detail.update(_overhead(args.workload, args.trace, run))
    print(json.dumps({"env": environment(run, args.seed)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _overhead(workload, traced, run):
    """Tracing overhead: this traced run's end-to-end numbers minus those
    of the last untraced run of the same workload in this checkout."""
    import workloads

    current = end_to_end(run, workload)
    path = workloads.WORK_ROOT / f"last-untraced-{workload}.json"
    if not traced:
        path.write_text(json.dumps(current))
        return {}
    if not path.exists():
        return {"tracing_overhead": None}
    previous = json.loads(path.read_text())
    return {
        "tracing_overhead": {
            name: current[name] - previous[name]
            for name in ("query_p50_ms", "query_tail_ms", "ops_per_s")
        }
    }


if __name__ == "__main__":
    sys.exit(main())
