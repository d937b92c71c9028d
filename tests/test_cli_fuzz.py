"""Fuzzing of ``cli.main`` on mutated vector and snapshot files.

A small valid file gets up to three lines mutated the way
``test_parsers_fuzz`` mutates parser input (a field dropped or
duplicated, a token replaced by a hostile one) and is fed to the
subcommands that read it.  The only allowed outcomes are exit 0, exit 2
with a message naming ``file:line``, or exit 3; an exception escaping
``main`` fails the test.
"""

import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sinograph import formats
from sinograph.charstore import AllographClass
from sinograph.cli import main
from sinograph.graphcore import EdgeData, InclusionGraph

from test_parsers_fuzz import _mutate


def _edge(s: float, phi: float) -> EdgeData:
    return EdgeData({"cmn": 2.0 * phi, "ja_on": 3.0 * phi},
                    {"cmn": phi, "ja_on": phi / 2}, 2, 1, 0.5, 2.0 * s, s)


def _snapshot_text() -> str:
    """Four classes, one with a variant; every edge carries S and phi."""
    g = InclusionGraph()
    g.add_edge(0, 1, _edge(0.75, 0.5))
    g.add_edge(1, 2, _edge(0.25, 1.0))
    g.add_edge(3, 2, _edge(1.0, 0.125))
    g.meta["phi_dmax_cmn"] = repr(4.0)
    g.meta["phi_dmax_ja_on"] = repr(6.0)
    classes = [AllographClass(0, frozenset({0x4E00}), 0x4E00),
               AllographClass(1, frozenset({0x4E8C, 0x4E09}), 0x4E8C),
               AllographClass(2, frozenset({0x4E0A}), 0x4E0A),
               AllographClass(3, frozenset({0x4E0B}), 0x4E0B)]
    return formats.snapshot_to_string(g, classes, {1: {"syn0", "syn1"},
                                                   3: {"syn2"}})


def _vectors_text() -> str:
    lines = [f"{lab}\t{base}:1.0 {base + 1}:0.{i + 1}"
             for i in range(6) for lab, base in (("one", 0), ("two", 2))]
    return formats.VECTORS_HEADER + "\n" + "\n".join(lines) + "\n"


CORPUS = "one\t一二三一\ntwo\t上下上\none\t三三二\ntwo\t下上\n"
# subcommand argv per mutated file; {file} is the mutated file
RUNS = {
    "vectors": (_vectors_text(), [
        "evaluate --vectors {file} --k 2 --out {out}",
    ]),
    "snapshot": (_snapshot_text(), [
        "chains --snapshot {file} --kind semantic --all --out {out}",
        "chains --snapshot {file} --kind phonetic --language cmn --all --out {out}",
        "features --snapshot {file} --corpus {corpus} --min-count 1 "
        "--strategy combined --language ja_on --out {out}",
        "query-unknown --snapshot {file} --all --out {out}",
    ]),
}


def test_valid_files_run_cleanly(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(CORPUS, encoding="utf-8")
    for name, (text, commands) in RUNS.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        for command in commands:
            argv = command.format(file=path, out=tmp_path / "out",
                                  corpus=corpus).split()
            assert main(argv) == 0, argv


@pytest.mark.parametrize("name", sorted(RUNS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_exits_cleanly(name, data, capsys):
    text, commands = RUNS[name]
    lines = text.splitlines()
    for i in data.draw(st.lists(st.integers(0, len(lines) - 1),
                                min_size=1, max_size=3)):
        lines[i] = _mutate(data.draw, lines[i])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        corpus = os.path.join(tmp, "corpus.tsv")
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write(CORPUS)
        for command in commands:
            argv = command.format(file=path, out=os.path.join(tmp, "out"),
                                  corpus=corpus).split()
            capsys.readouterr()
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (0, 2, 3), (argv, rc, err)
            if rc == 2:
                assert re.search(re.escape(path) + r":\d+: ", err), (argv, err)
