"""Benchmark entry point.

    python3 bench/run.py --workload classify|mine|annotate --seed N \\
        --seconds S --trace 0|1

The program is imported from the checkout's ``src/``, so the command
runs from the root of any checkout.  One process runs one workload: it
sets up several times (``setup_s`` is the median), then repeats whole
rounds of the workload's CLI operations until ``--seconds`` of rounds
are measured (``wall_s`` is the median round), then checks the first
round's outputs and that every later round wrote the same bytes.

With ``--trace 1`` it instead alternates an untraced and a traced pass
(one set-up plus one round each) and reports the per-layer metrics of
the traced passes; the spans of the first traced pass are written to
``.bench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
TRACE_DIR = os.path.join(ROOT, ".bench_out")

# One BLAS thread: the classifier's matrix-vector products are too small
# to gain from more, and a second thread competes with other processes.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program() -> None:
    """Put the checkout's sources first on the path, before numpy loads."""
    if not os.path.isfile(os.path.join(SRC, "sinograph", "cli.py")):
        raise SystemExit(f"run.py: no sinograph sources in {SRC}")
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import sinograph.cli
    if not os.path.abspath(sinograph.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: sinograph imported from outside {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sinograph benchmark")
    parser.add_argument("--workload", required=True,
                        help="classify, mine or annotate")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import harness
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    runner = harness.Runner(workloads.WORKLOADS[args.workload], args.seed, work)
    try:
        if args.trace:
            metrics = harness.trace(runner, args.seconds, TRACE_DIR)
        else:
            metrics = harness.measure(runner, args.seconds)
    except workloads.StepFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)  # fails while another run still uses it
        except OSError:
            pass

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for op, times in sorted(runner.op_seconds.items()):
        print(f"# op {op}: median {statistics.median(times):.4f} s of {len(times)}")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value}\t{unit}")
    print(f"attempted\t{runner.attempted}\nfailed\t{runner.failed}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
