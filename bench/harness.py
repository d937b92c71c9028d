"""Measurement loops behind ``run.py``: set-ups, rounds, traced passes."""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import time

import checks
import gendata
import spans
import workloads

# Set up at least three times, and until set-ups have taken a few
# seconds, so that a cheap set-up is still a median of many.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_SECONDS = 3.0


def _digest(directory: str) -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs one workload's set-ups and rounds, counting operations."""

    def __init__(self, workload, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_seconds: dict[str, list[float]] = {}
        self._n = 0

    def _fresh(self, kind: str) -> str:
        self._n += 1
        path = os.path.join(self.work, f"{kind}{self._n}")
        os.makedirs(path)
        return path

    def setup(self, tracer: spans.Tracer | None = None):
        """One set-up: (seconds, prepared state, directory).  A tracer is
        installed after the inputs are generated, so it sees only the
        program."""
        directory = self._fresh("setup")
        gc.collect()
        start = time.perf_counter()
        data = gendata.make_inputs(os.path.join(directory, "inputs"),
                                   self.workload.name, self.seed)
        if tracer is not None:
            tracer.install()
        prep = self.workload.prepare(directory, data, self.seed)
        return time.perf_counter() - start, prep, directory

    def round(self, prep):
        """One round: (seconds, output directory, operations failed)."""
        out = self._fresh("round")
        ops = self.workload.round(prep, out)
        failed = 0
        total = 0.0
        for argv in ops:
            gc.collect()
            start = time.perf_counter()
            failed += workloads.run_cli(argv) != 0
            elapsed = time.perf_counter() - start
            total += elapsed
            self.op_seconds.setdefault(argv[0], []).append(elapsed)
        self.attempted += len(ops)
        self.failed += failed
        return total, out, failed

    def same(self, directory: str, reference: str, what: str) -> None:
        if _digest(directory) != reference:
            self.problems.append(f"{what} wrote different bytes on a repeat")

    def check(self, prep, out) -> dict[str, float]:
        try:
            return self.workload.check(prep, out)
        except (checks.CheckError, LookupError, ValueError) as exc:
            self.problems.append(f"{self.workload.name}: {type(exc).__name__}: {exc}")
            return {}


def measure(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    """Median set-up of several, then rounds until ``seconds`` are measured."""
    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPEATS
           or sum(setup_times) < SETUP_SECONDS
           and len(setup_times) < SETUP_MAX_REPEATS):
        elapsed, prep_i, directory = runner.setup()
        if not setup_times:
            prep, setup_digest = prep_i, _digest(directory)
        else:
            runner.same(directory, setup_digest, "set-up")
            shutil.rmtree(directory)
        setup_times.append(elapsed)

    rounds = []
    first = None
    while not rounds or sum(rounds) < seconds:
        elapsed, out, failed = runner.round(prep)
        rounds.append(elapsed)
        if first is None:
            first, first_failed, first_digest = out, failed, _digest(out)
        else:
            if not failed and not first_failed:
                runner.same(out, first_digest, "a round")
            shutil.rmtree(out)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = runner.check(prep, first) if not first_failed else {}
    print(f"# {len(setup_times)} set-ups, {len(rounds)} rounds")
    for name, value in outputs.items():
        print(f"# {name}\t{value}\tfraction")
    return {"setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(rounds), "s"),
            "peak_rss_mb": (peak_mb, "MB")}


def trace(runner: Runner, seconds: float, trace_dir: str
          ) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced passes (set-up plus round) and report
    the traced per-layer metrics; counts must repeat in every pass."""
    untraced, traced, layer_runs = [], [], []
    counts = None
    reference = None
    outputs: dict[str, float] | None = None
    while not traced or sum(untraced) + sum(traced) < seconds:
        for tracing in (False, True):
            tracer = spans.Tracer()
            try:
                setup_s, prep, _ = runner.setup(tracer if tracing else None)
                round_s, out, failed = runner.round(prep)
            finally:
                tracer.uninstall()
            (traced if tracing else untraced).append(setup_s + round_s)
            if not failed and reference is None:
                reference = _digest(out)
                outputs = runner.check(prep, out)
            elif not failed:
                runner.same(out, reference, "a round")
            if not tracing:
                continue
            layer = tracer.metrics()
            layer_runs.append(layer)
            pass_counts = {k: v for k, v in layer.items() if not k.endswith("_s")}
            if counts is None:
                counts = pass_counts
                os.makedirs(trace_dir, exist_ok=True)
                tracer.dump(os.path.join(
                    trace_dir, f"{runner.workload.name}-seed{runner.seed}.spans.tsv"))
            elif pass_counts != counts:
                runner.problems.append("traced counts differ between passes")

    metrics = {}
    for name in spans.TIME_METRICS:
        metrics[name] = (statistics.median(run[name] for run in layer_runs), "s")
    for name, unit in spans.COUNT_METRICS.items():
        metrics[name] = (counts[name], unit)
    for name in spans.RATIO_METRICS:
        metrics[name] = (counts[name], "ratio")
    for name in ("accuracy_baseline", "accuracy_augmented"):
        metrics["classify." + name] = ((outputs or {}).get(name, 0.0), "fraction")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced), "s")
    return metrics
