"""Start ``repro serve`` for the benchmark, optionally traced.

Usage: ``python3 perfbench/launch.py [--spans FILE] serve ARGS...``

With ``--spans FILE`` the launcher wraps the layer functions named in
``spans.TARGETS`` before the server starts and writes the recorded spans
to FILE when the server shuts down (SIGINT).  Without it no wrapper is
installed.  The first line on standard output reports the wrapper count.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    recorder = None
    installed = 0
    if spans_path is not None:
        import spans

        recorder = spans.Recorder()
        installed = spans.install(recorder)
    print(f"perfbench-launch wrappers={installed}", flush=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
