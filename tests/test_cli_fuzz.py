"""Fuzzing of ``cli.main`` on mutated input files.

A small valid file gets up to three lines mutated the way
``test_parsers_fuzz`` mutates parser input (a field dropped or
duplicated, a token replaced by a hostile one) and is fed to the
subcommands that read it: a vectors file to ``evaluate``, an annotated
snapshot to ``chains``, ``features`` and ``query-unknown``, and each
synset and reading file to ``annotate``.  The only allowed outcomes are
exit 0, exit 2 with a message naming ``file:line`` of one of the inputs
(a mutated synset id can break a relations line), or exit 3; an
exception escaping ``main`` fails the test.
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


CLASSES = [AllographClass(0, frozenset({0x4E00}), 0x4E00),
           AllographClass(1, frozenset({0x4E8C, 0x4E09}), 0x4E8C),
           AllographClass(2, frozenset({0x4E0A}), 0x4E0A),
           AllographClass(3, frozenset({0x4E0B}), 0x4E0B)]
# edge -> (S, phi)
EDGES = {(0, 1): (0.75, 0.5), (1, 2): (0.25, 1.0), (3, 2): (1.0, 0.125)}


def _snapshot_text(annotated: bool) -> str:
    """Four classes, one with a variant.  Annotated, every edge carries S
    and phi and two classes carry synsets; otherwise as ``build-graph``
    writes it."""
    g = InclusionGraph()
    for (sub, sup), (s, phi) in EDGES.items():
        g.add_edge(sub, sup, _edge(s, phi) if annotated else None)
    if not annotated:
        return formats.snapshot_to_string(g, CLASSES)
    g.meta["phi_dmax_cmn"] = repr(4.0)
    g.meta["phi_dmax_ja_on"] = repr(6.0)
    return formats.snapshot_to_string(g, CLASSES, {1: {"syn0", "syn1"},
                                                   3: {"syn2"}})


def _vectors_text() -> str:
    lines = [f"{lab}\t{base}:1.0 {base + 1}:0.{i + 1}"
             for i in range(6) for lab, base in (("one", 0), ("two", 2))]
    return formats.VECTORS_HEADER + "\n" + "\n".join(lines) + "\n"


# every input file by name, valid; a run mutates one of them
FILES = {
    "vectors": _vectors_text(),
    "snapshot": _snapshot_text(annotated=True),
    "corpus": "one\t一二三一\ntwo\t上下上\none\t三三二\ntwo\t下上\n",
    "graph": _snapshot_text(annotated=False),
    "readings": "4E00\tcmn\tyi1\n4E8C\tja_on\tni\n4E09\tja_on\tsan\n"
                "4E0A\tja_on\tjou\n4E0A\tja_kun\tu e\n4E0A\tcmn\tshang4\n"
                "4E0B\tcmn\txia4\n",
    "radicals": "4E00\t1\n4E8C\t7\n4E09\t1\n4E0A\t1\n4E0B\t1\n",
    "synsets": "s1\t一二|三\ns2\t上\ns3\t二上\ns4\t下\n",
    "relations": "s1\thyponymy\ts2\ns2\tsimilar\ts3\ns3\thyponymy\ts4\n",
    "definitions": "4E00\tone|一\n4E0B\t下|below\n",
}
ANNOTATE = ("annotate --snapshot {graph} --out {out} --readings {readings} "
            "--radicals {radicals} --synsets {synsets} --relations {relations} "
            "--definitions {definitions}")
# subcommand argv per mutated file; {name} is the file of that name
RUNS = {
    "vectors": ["evaluate --vectors {vectors} --k 2 --out {out}"],
    "snapshot": [
        "chains --snapshot {snapshot} --kind semantic --all --out {out}",
        "chains --snapshot {snapshot} --kind phonetic --language cmn --all "
        "--out {out}",
        "features --snapshot {snapshot} --corpus {corpus} --min-count 1 "
        "--strategy combined --language ja_on --out {out}",
        "query-unknown --snapshot {snapshot} --all --out {out}",
    ],
    **{name: [ANNOTATE] for name in
       ("readings", "radicals", "synsets", "relations", "definitions")},
}


def _write_files(base: str, texts: dict[str, str]) -> dict[str, str]:
    paths = {"out": os.path.join(base, "out")}
    for name, text in texts.items():
        paths[name] = os.path.join(base, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def test_valid_files_run_cleanly(tmp_path, capsys):
    paths = _write_files(str(tmp_path), FILES)
    for commands in RUNS.values():
        for command in commands:
            argv = command.format(**paths).split()
            assert main(argv) == 0, argv


@pytest.mark.parametrize("name", sorted(RUNS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_exits_cleanly(name, data, capsys):
    lines = FILES[name].splitlines()
    for i in data.draw(st.lists(st.integers(0, len(lines) - 1),
                                min_size=1, max_size=3)):
        lines[i] = _mutate(data.draw, lines[i])
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_files(tmp, {**FILES, name: "\n".join(lines) + "\n"})
        for command in RUNS[name]:
            argv = command.format(**paths).split()
            capsys.readouterr()
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (0, 2, 3), (argv, rc, err)
            if rc == 2:
                assert re.search(re.escape(tmp) + r"/\w+:\d+: ", err), (argv, err)
