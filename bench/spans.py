"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of sinograph's layer
modules with a wrapper that records a span (function, start, end,
parent span) and, for some functions, counts taken from the arguments
and the result.  The CLI and the layers import functions by name, so
the wrapper is bound under every name that refers to the function, in
every sinograph module; a span wraps the name the caller looks up.
``uninstall`` restores the originals.

A layer metric ``<module>.<name>_s`` is the self time of the functions
mapped to it: span duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("formats", "strokesig", "graphcore", "charstore", "phonetics",
          "semantics", "features", "classify", "inferschar")

# Called once per candidate pair, millions of times: a span each would
# cost more than the work it measures, so calls are only counted.
COUNT_ONLY = {
    "strokesig.signature_contains": "strokesig.candidate_pairs",
}

# Function -> the self-time metric it adds to; any other wrapped function
# adds to its module's default below.
TIME_METRIC = {
    "formats.write_vectors": "formats.write_s",
    "formats.write_snapshot": "formats.write_s",
    "formats.save_snapshot": "formats.write_s",
    "formats.snapshot_to_string": "formats.write_s",
    "strokesig.parse_stroke_spec": "formats.parse_s",
    "strokesig.normalize_stroke_type": "formats.parse_s",
    "strokesig.detect_inclusions": "strokesig.detect_s",
    "graphcore.lift_to_classes": "graphcore.lift_s",
    "graphcore.from_edges": "graphcore.lift_s",
    "phonetics.least_phonetic_chain": "phonetics.chain_s",
    "semantics.annotate_classes": "semantics.classes_s",
    "semantics.most_semantic_chain": "semantics.chain_s",
    "features.baseline_vectors": "features.baseline_s",
    "classify.train": "classify.train_s",
}
MODULE_TIME_METRIC = {
    "formats": "formats.parse_s",
    "strokesig": "strokesig.signature_s",
    "graphcore": "graphcore.reduce_s",
    "charstore": "charstore.classes_s",
    "phonetics": "phonetics.phi_s",
    "semantics": "semantics.semanticity_s",
    "features": "features.augment_s",
    "classify": "classify.cv_self_s",
    "inferschar": "inferschar.query_s",
}

TIME_METRICS = sorted(set(TIME_METRIC.values()) | set(MODULE_TIME_METRIC.values()))
COUNT_METRICS = {
    # name: unit
    "formats.bytes_read": "bytes",
    "formats.bytes_written": "bytes",
    "strokesig.candidate_pairs": "count",
    "strokesig.inclusions": "count",
    "graphcore.edges_in": "count",
    "graphcore.edges_kept": "count",
    "graphcore.class_edges": "count",
    "charstore.classes": "count",
    "phonetics.edges_with_phi": "count",
    "semantics.edges_s_zero": "count",
    "semantics.annotated_classes": "count",
    "features.vocabulary": "count",
    "features.vocabulary_added": "count",
    "features.nnz": "count",
    "classify.epochs": "count",
    "classify.models": "count",
    "classify.models_capped": "count",
    "classify.support_vectors": "count",
    "inferschar.classes_answered": "count",
}
RATIO_METRICS = {
    # name: (numerator, denominator)
    "strokesig.inclusion_yield": ("strokesig.inclusions", "strokesig.candidate_pairs"),
    "graphcore.kept_ratio": ("graphcore.edges_kept", "graphcore.edges_in"),
}


# -- counts taken at the boundaries ------------------------------------------
# Each observer gets the counts, the call's arguments by name (defaults
# applied), the result, and what the function's BEFORE hook returned.

def _bytes_read(counts, a, result, before):
    counts["formats.bytes_read"] += os.path.getsize(a["path"])


def _file_bytes_written(counts, a, result, before):
    counts["formats.bytes_written"] += os.path.getsize(a["path"])


def _stream_bytes_written(counts, a, result, before):
    counts["formats.bytes_written"] += a["fh"].tell() - before
    counts["features.nnz"] += sum(len(vec) for vec in a["vectors"])


def _inclusions(counts, a, result, before):
    counts["strokesig.inclusions"] += len(result)


def _reduced(counts, a, result, before):
    counts["graphcore.edges_in"] += a["g"].edge_count()
    counts["graphcore.edges_kept"] += result.edge_count()


def _lifted(counts, a, result, before):
    counts["graphcore.class_edges"] += result.edge_count()


def _classes(counts, a, result, before):
    counts["charstore.classes"] += len(result)


def _phi(counts, a, result, before):
    lang = a["language"].value
    counts["phonetics.edges_with_phi"] += sum(
        1 for sub, sup in result.edges() if lang in result.edge(sub, sup).phi)


def _semanticity(counts, a, result, before):
    counts["semantics.edges_s_zero"] += sum(
        1 for sub, sup in result.edges() if result.edge(sub, sup).s == 0)


def _annotated(counts, a, result, before):
    counts["semantics.annotated_classes"] += len(result)


def _baseline(counts, a, result, before):
    counts["features.vocabulary"] += len(result[0])


def _augmented(counts, a, result, before):
    added = len(result[0]) - len(a["vocab"])
    counts["features.vocabulary"] += added
    counts["features.vocabulary_added"] += added


def _trained(counts, a, result, before):
    epochs = result.epochs_run
    counts["classify.epochs"] += sum(epochs)
    counts["classify.models"] += len(epochs)
    counts["classify.models_capped"] += sum(e >= a["max_epochs"] for e in epochs)


def _evaluated(counts, a, result, before):
    counts["classify.support_vectors"] += result.support_vector_count


def _answered(counts, a, result, before):
    counts["inferschar.classes_answered"] += bool(result)


def _tell(a):
    return a["fh"].tell()


OBSERVE = {
    "formats.save_snapshot": _file_bytes_written,
    "formats.write_vectors": _stream_bytes_written,
    "strokesig.detect_inclusions": _inclusions,
    "graphcore.transitive_reduce": _reduced,
    "graphcore.lift_to_classes": _lifted,
    "charstore.build_allograph_classes": _classes,
    "phonetics.phoneticity": _phi,
    "semantics.annotate_semanticity": _semanticity,
    "semantics.annotate_classes": _annotated,
    "features.baseline_vectors": _baseline,
    "features.augment_strategy1": _augmented,
    "features.augment_strategy2": _augmented,
    "classify.train": _trained,
    "classify.cross_validate": _evaluated,
    "inferschar.semantic_approximation": _answered,
}
BEFORE = {"formats.write_vectors": _tell}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, fn, qualname: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        observe, before_hook = OBSERVE.get(qualname), BEFORE.get(qualname)
        if qualname.startswith("formats.load_"):
            observe = _bytes_read
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                named = bound.arguments
                before = before_hook(named) if before_hook else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (qualname, start, end, parent)
            if observe:
                observe(counts, named, result, before)
            return result
        return wrapper

    def _counter(self, fn, metric: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sinograph" or name.startswith("sinograph.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"sinograph.{layer}"]
            for name, fn in vars(mod).items():
                qualname = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if qualname in COUNT_ONLY:
                    wrappers[fn] = self._counter(fn, COUNT_ONLY[qualname])
                else:
                    wrappers[fn] = self._span(fn, qualname)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent = span
            if parent >= 0:
                child[parent] += end - start
        out: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Every layer metric: self times, counts and ratios."""
        out = {name: 0.0 for name in TIME_METRICS}
        for qualname, seconds in self.self_times().items():
            module = qualname.split(".")[0]
            out[TIME_METRIC.get(qualname, MODULE_TIME_METRIC[module])] += seconds
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        for name, (num, den) in RATIO_METRICS.items():
            out[name] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        return out

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
