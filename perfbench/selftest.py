"""Self-tests of the benchmark at a tiny size (a few seconds each).

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.
Checks that every named metric is emitted with its unit, that a
corrupted answer or count fails the output checks, and that the
untraced run installs no wrapper (in process or in the server) while
the traced one does.  Exits 1 on the first failure.
"""

import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def emitted(workload, run, traced):
    detail, result = bench.report(workload, run, traced)
    names = "per_layer" if traced else "end_to_end"
    wanted = {entry["name"]: entry["unit"] for entry in bench.BENCHMARK[names]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect(got == wanted, f"{workload} trace={int(traced)}: every metric with its unit")
    expect(
        all(math.isfinite(metric["value"]) for metric in result["metrics"].values()),
        f"{workload} trace={int(traced)}: every metric value finite",
    )
    expect(result["correct"], f"{workload} trace={int(traced)}: output checks pass")
    return result


def corrupted(workload, run, field):
    rows = getattr(run, field)
    label, got, want = rows[0]
    rows[0] = (label, math.nextafter(float(got), math.inf), want)
    _, result = bench.report(workload, run, False)
    message = f"{workload}: a corrupted {field[:-1]} fails the check"
    expect(not result["correct"], message)
    rows[0] = (label, got, want)


def main():
    workdir = workloads.workdir_for("selftest")
    try:
        cold = workloads.run_cold(1, 0.5, tiny=True)
        expect(spans.wrapped_bindings() == [], "untraced cold installs no wrapper")
        emitted("cold", cold, False)
        corrupted("cold", cold, "counts")

        servers = (("warm", workloads.run_warm), ("live", workloads.run_live))
        for name, runner in servers:
            run = runner(1, 0.5, workdir, tiny=True)
            expect(run.service["wrappers"] == 0, f"untraced {name} server: no wrapper")
            emitted(name, run, False)
            corrupted(name, run, "answers")
            traced = runner(2, 0.5, workdir, traced=True, tiny=True)
            expect(traced.service["wrappers"] > 0, f"traced {name} server: wrapped")
            emitted(name, traced, True)

        recorder = spans.Recorder()
        spans.install(recorder)
        wrapped = spans.wrapped_bindings()
        expect(len(wrapped) == len(spans.TARGETS), "traced cold: every target wrapped")
        traced = workloads.run_cold(2, 0.5, recorder=recorder, tiny=True)
        result = emitted("cold", traced, True)
        expect(
            result["metrics"]["core.delta_ms"]["value"] > 0
            and result["metrics"]["lp.g_probe_calls"]["value"] > 0,
            "traced cold: the delta search is recorded",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
