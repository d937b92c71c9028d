"""The bench tracer's hooks name live functions and read real arguments.

``bench/spans.py`` wraps layer functions by their qualified names and
reads their arguments by parameter name.  A rename in ``src/`` leaves a
hook that wraps nothing, or one that fails on its first call, without
any other test noticing; these tests read the tracer's tables and fail
instead.
"""

import importlib
import inspect
import os
import re
import sys
from collections import Counter

import pytest

from sinograph import formats
from sinograph.classify import cross_validate

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402

# Hooked names whose function no longer exists; mending them is a
# change to the benchmark, listed in ROADMAP.md item 1.
STALE = {"classify.train", "formats.snapshot_to_string",
         "strokesig.parse_stroke_spec", "strokesig.normalize_stroke_type"}

HOOKED = sorted(set(spans.TIME_METRIC) | set(spans.OBSERVE) | set(spans.BEFORE)
                | set(spans.COUNT_ONLY))


def _function(qualname):
    """The public function ``Tracer.install`` wraps under ``qualname``,
    or None."""
    module, name = qualname.split(".")
    if module not in spans.LAYERS:
        return None
    mod = importlib.import_module(f"sinograph.{module}")
    fn = getattr(mod, name, None)
    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
        return fn
    return None


def _keys_read(hook):
    """The argument names a hook reads as ``a["..."]``."""
    return set(re.findall(r'\ba\["(\w+)"\]', inspect.getsource(hook)))


@pytest.mark.parametrize("qualname", HOOKED)
def test_every_hooked_name_is_a_layer_function(qualname):
    if qualname in STALE:
        assert _function(qualname) is None, f"{qualname} is no longer stale"
    else:
        assert _function(qualname) is not None, f"{qualname} wraps nothing"


# (function, hook that reads its arguments); every formats.load_* is
# observed by _bytes_read
HOOKS = ([(q, h) for q, h in spans.OBSERVE.items() if q not in STALE]
         + list(spans.BEFORE.items())
         + [(f"formats.{name}", spans._bytes_read) for name in vars(formats)
            if name.startswith("load_") and _function(f"formats.{name}")])


@pytest.mark.parametrize("qualname, hook", HOOKS,
                         ids=[f"{q}-{h.__name__}" for q, h in HOOKS])
def test_every_key_a_hook_reads_is_a_parameter(qualname, hook):
    parameters = inspect.signature(_function(qualname)).parameters
    missing = _keys_read(hook) - set(parameters)
    assert not missing, f"{hook.__name__} reads {missing}, not parameters of {qualname}"


def test_evaluation_report_answers_the_support_vector_count():
    labels = ["a", "b"] * 4
    vectors = [{0 if label == "a" else 1: 1.0} for label in labels]
    report = cross_validate(vectors, labels, k=2)
    counts = Counter()
    spans._evaluated(counts, {}, report, None)
    assert counts["classify.support_vectors"] == sum(report.fold_support_vectors)
