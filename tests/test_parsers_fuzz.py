"""Fuzzing of every input parser on mutated valid files.

Each parser gets a small valid file whose lines are mutated: a field is
dropped or duplicated, or a token is replaced by a hostile one.  The only
allowed outcomes are a parsed value whose every float is finite, or an
``InputError``.
"""

import functools
import math
import os
import re
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinograph import formats
from sinograph.charstore import AllographClass
from sinograph.errors import InputError
from sinograph.graphcore import EdgeData, InclusionGraph
from sinograph.phonetics import FeatureTable

HOSTILE = ("nan", "inf", "-1", "-", "", "zz", "1e400")
TOKEN = re.compile(r"[\w.+]+")


def _snapshot_text() -> str:
    g = InclusionGraph()
    data = EdgeData({"cmn": 1.25, "ja_on": 0.5}, {"cmn": 0.75, "ja_on": 0.9},
                    2, 1, 0.5, 0.625, 1.0)
    g.add_edge(0, 1, data)
    g.add_edge(2, 1)
    g.meta["phi_dmax_cmn"] = repr(5.0)
    classes = [AllographClass(0, frozenset({0x4E00}), 0x4E00),
               AllographClass(1, frozenset({0x4E8C, 0x4E09}), 0x4E8C),
               AllographClass(2, frozenset({0x4E0A}), 0x4E0A)]
    return formats.snapshot_to_string(g, classes, {1: {"syn0", "syn1"}})


def _load_feature_table(text: str) -> FeatureTable:
    fd, path = tempfile.mkstemp(suffix=".tsv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        return FeatureTable.load(path)
    finally:
        os.unlink(path)


VALID = {
    "parse_strokes": "4E00\tH:(1,5)-(9,5)\n8A00\tD:(4,9)-(4.5,8);H:(2,7.6)-(6.5,7.6)\n",
    "parse_readings": "4EBA\tcmn\tren2\n4EBA\tja_kun\thi to\n4EBA\tja_on\tnin\n",
    "parse_variants": "4E00\t4E01\n4E02\t4E03\n",
    "parse_radicals": "4E00\t1\n4E01\t214\n",
    "parse_synsets": "s1\t一二|三\ns2\t人\n",
    "parse_relations": "s1\thyponymy\ts2\n",
    "parse_definitions": "4E00\t一二|三\n4E01\t人\n",
    "parse_freq_counts": "4E00\t10\n4E01\t3\n",
    "parse_corpus": "one\t一二三\ntwo\t人人\n",
    "parse_vectors": f"{formats.VECTORS_HEADER}\none\t0:1.0 3:0.5\ntwo\t1:2\n",
    "parse_snapshot": _snapshot_text(),
    "parse_feature_table": resources.files("sinograph").joinpath(
        "data/phoneme_features.tsv").read_text(encoding="utf-8"),
}
VALID["FeatureTable.load"] = VALID["parse_feature_table"]
PARSERS = {name: getattr(formats, name) for name in VALID if name.startswith("parse_")}
PARSERS["parse_relations"] = functools.partial(formats.parse_relations,
                                               synsets={"s1", "s2"})
PARSERS["FeatureTable.load"] = _load_feature_table


def test_every_parser_has_a_sample():
    own = [name for name, fn in vars(formats).items() if name.startswith("parse_")
           and fn.__module__ == formats.__name__]
    assert sorted(PARSERS) == sorted(own + ["FeatureTable.load"])


def _floats(value):
    """Every float reachable from a parsed value."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _floats(k)
            yield from _floats(v)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _floats(item)
    elif hasattr(value, "__dict__") and not isinstance(value, str):
        yield from _floats(vars(value))


def _mutate(draw, line: str) -> str:
    op = draw(st.sampled_from(("drop", "duplicate", "replace")))
    if op == "replace":
        spans = [m.span() for m in TOKEN.finditer(line)]
        if spans:
            a, b = draw(st.sampled_from(spans))
            line = line[:a] + draw(st.sampled_from(HOSTILE)) + line[b:]
        return line
    fields = line.split("\t")
    i = draw(st.integers(0, len(fields) - 1))
    if op == "drop":
        del fields[i]
    else:
        fields.insert(i, fields[i])
    return "\t".join(fields)


@pytest.mark.parametrize("name", sorted(VALID))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_input_parses_or_is_an_input_error(name, data):
    lines = VALID[name].splitlines()
    targets = data.draw(st.lists(st.integers(0, len(lines) - 1),
                                 min_size=1, max_size=3))
    for i in targets:
        lines[i] = _mutate(data.draw, lines[i])
    text = "\n".join(lines) + "\n"
    try:
        result = PARSERS[name](text)
    except InputError:
        return
    bad = [v for v in _floats(result) if not math.isfinite(v)]
    assert not bad, f"{name} returned non-finite numbers {bad} from {text!r}"
