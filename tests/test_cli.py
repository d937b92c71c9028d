import functools
import math
import os

import pytest

from sinograph import cli, formats
from sinograph.classify import cross_validate
from sinograph.cli import main

# three characters where A's strokes are a prefix of B's and B's of C's,
# drawn with generic slopes so no accidental parallels occur
STROKE_A = "H:(0,0)-(3,1)"
STROKE_B = STROKE_A + ";S:(4,5)-(5,1)"
STROKE_C = STROKE_B + ";P:(8,6)-(6,0)"


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture
def chain_inputs(tmp_path):
    strokes = write(tmp_path / "strokes.tsv",
                    f"4E00\t{STROKE_A}\n4E01\t{STROKE_B}\n4E02\t{STROKE_C}\n")
    readings = write(tmp_path / "readings.tsv",
                     "4E00\tja_on\tnin\n"
                     "4E01\tja_on\tnin\n"
                     "4E02\tja_on\tkan\n"
                     "4E00\tcmn\tren2\n"
                     "4E01\tcmn\tren4\n")
    radicals = write(tmp_path / "radicals.tsv",
                     "4E00\t1\n4E01\t1\n4E02\t2\n")
    synsets = write(tmp_path / "synsets.tsv",
                    "s_sub\t一二\ns_sup\t丁二\ns_far\tzzz\n")
    relations = write(tmp_path / "relations.tsv", "s_sub\thyponymy\ts_sup\n")
    definitions = write(tmp_path / "definitions.tsv", "4E00\t一二\n")
    return dict(strokes=strokes, readings=readings, radicals=radicals,
                synsets=synsets, relations=relations, definitions=definitions,
                dir=tmp_path)


def test_build_graph_reduces_chain(chain_inputs, capsys):
    out = str(chain_inputs["dir"] / "g.snap")
    rc = main(["build-graph", "--strokes", chain_inputs["strokes"],
               "--out", out])
    assert rc == 0
    stats = dict(line.split("\t") for line in
                 capsys.readouterr().out.strip().splitlines())
    assert stats["classes"] == "3"
    assert stats["class_inclusions"] == "2"  # transitive edge removed
    g, classes, _ = formats.load_snapshot(out)
    assert g.edge_count() == 2


def test_build_graph_missing_file_exit_2(tmp_path, capsys):
    rc = main(["build-graph", "--strokes", str(tmp_path / "none.tsv"),
               "--out", str(tmp_path / "g.snap")])
    assert rc == 2


def test_build_graph_empty_strokes_exit(tmp_path):
    strokes = write(tmp_path / "strokes.tsv", "# empty\n")
    rc = main(["build-graph", "--strokes", strokes,
               "--out", str(tmp_path / "g.snap")])
    assert rc == 3


def test_build_graph_codepoint_filter(chain_inputs, capsys):
    out = str(chain_inputs["dir"] / "g.snap")
    rc = main(["build-graph", "--strokes", chain_inputs["strokes"],
               "--codepoint-range", "4E00-4E01", "--out", out])
    assert rc == 0
    stats = dict(line.split("\t") for line in
                 capsys.readouterr().out.strip().splitlines())
    assert stats["characters"] == "2"
    assert stats["classes"] == "2"


def test_build_graph_rejects_nan_coordinate(tmp_path, capsys):
    # unchecked, the NaN component matches anything and this unrelated
    # pair yields the inclusion 4E00 -> 4E01
    strokes = write(tmp_path / "strokes.tsv",
                    "4E00\tH:(nan,5)-(9,5);S:(5,9)-(5,1)\n"
                    "4E01\tP:(1,1)-(2,2);H:(1,5)-(9,5);S:(2,9)-(3,1)\n")
    rc = main(["build-graph", "--strokes", strokes,
               "--out", str(tmp_path / "g.snap")])
    assert rc == 2
    assert "strokes.tsv:1:" in capsys.readouterr().err


def test_usage_error_exit_1(capsys):
    assert main(["build-graph"]) == 1  # missing required arguments
    assert main(["no-such-command"]) == 1


def _annotate(chain_inputs, extra=()):
    snap = str(chain_inputs["dir"] / "g.snap")
    out = str(chain_inputs["dir"] / "a.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", snap]) == 0
    rc = main(["annotate", "--snapshot", snap, "--out", out,
               "--readings", chain_inputs["readings"],
               "--radicals", chain_inputs["radicals"],
               "--synsets", chain_inputs["synsets"],
               "--relations", chain_inputs["relations"],
               "--definitions", chain_inputs["definitions"], *extra])
    assert rc == 0
    return out


def test_annotate_attaches_phi_and_s(chain_inputs, capsys):
    out = _annotate(chain_inputs)
    g, classes, annotations = formats.load_snapshot(out)
    by_cp = {cp: cls.id for cls in classes for cp in cls.members}
    a, b = by_cp[0x4E00], by_cp[0x4E01]
    edge = g.edge(a, b)
    assert edge.phi["ja_on"] == pytest.approx(1.0)  # shared "nin"
    assert edge.f1 == 1  # synset relation s_sub -> s_sup
    assert edge.r == 1.0  # same radical
    assert edge.s == 1.0
    assert annotations  # definitions matched lemmas
    assert "phi_dmax_ja_on" in g.meta


def test_annotate_idempotent(chain_inputs, capsys):
    out = _annotate(chain_inputs)
    again = str(chain_inputs["dir"] / "b.snap")
    rc = main(["annotate", "--snapshot", out, "--out", again,
               "--readings", chain_inputs["readings"],
               "--radicals", chain_inputs["radicals"],
               "--synsets", chain_inputs["synsets"],
               "--relations", chain_inputs["relations"],
               "--definitions", chain_inputs["definitions"]])
    assert rc == 0
    with open(out, encoding="utf-8") as f1, open(again, encoding="utf-8") as f2:
        assert f1.read() == f2.read()


def test_annotate_without_readings_still_computes_s(chain_inputs, capsys):
    snap = str(chain_inputs["dir"] / "g.snap")
    out = str(chain_inputs["dir"] / "a.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", snap]) == 0
    rc = main(["annotate", "--snapshot", snap, "--out", out,
               "--synsets", chain_inputs["synsets"],
               "--relations", chain_inputs["relations"]])
    assert rc == 0
    g, _, _ = formats.load_snapshot(out)
    for e in g.edges():
        assert g.edge(*e).phi == {}
        assert g.edge(*e).s is not None


def test_annotate_nothing_computable_exit_3(chain_inputs, capsys):
    snap = str(chain_inputs["dir"] / "g.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", snap]) == 0
    rc = main(["annotate", "--snapshot", snap,
               "--out", str(chain_inputs["dir"] / "x.snap")])
    assert rc == 3


def test_chains_and_histogram(chain_inputs, capsys, tmp_path):
    out = _annotate(chain_inputs, extra=["--phi-histogram",
                                         str(chain_inputs["dir"] / "h.csv")])
    chains_file = str(chain_inputs["dir"] / "chains.txt")
    rc = main(["chains", "--snapshot", out, "--kind", "phonetic",
               "--language", "ja_on", "--all", "--out", chains_file])
    assert rc == 0
    lines = open(chains_file, encoding="utf-8").read().strip().splitlines()
    assert len(lines) == 3
    # class of 4E02 descends to its least phonetic subcharacter
    rc = main(["chains", "--snapshot", out, "--kind", "semantic",
               "--class", "4E02", "--out", chains_file])
    assert rc == 0
    hist = open(chain_inputs["dir"] / "h.csv", encoding="utf-8").read()
    assert hist.startswith("language,bin_lo,bin_hi,count")


def test_freqdist_self_distance_zero(tmp_path, capsys):
    f1 = write(tmp_path / "l1.tsv", "61\t3\n62\t2\n63\t1\n")
    f2 = write(tmp_path / "l2.tsv", "61\t3\n62\t2\n63\t1\n")
    rc = main(["freqdist", "--lists", f1, f2, "--n", "3"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1].split("\t")[1] == "0.000000"
    assert out[1].split("\t")[2] == "0.000000"


def test_features_and_evaluate_separable(chain_inputs, tmp_path, capsys):
    snap = _annotate(chain_inputs)
    # 2 categories, disjoint characters, k-fold friendly
    lines = []
    for i in range(10):
        lines.append("one\t" + "一" * 5)
        lines.append("two\t" + "丂" * 5)
    corpus = write(tmp_path / "corpus.tsv", "\n".join(lines) + "\n")
    vec_path = str(tmp_path / "vec.txt")
    rc = main(["features", "--snapshot", snap, "--corpus", corpus,
               "--min-count", "1", "--strategy", "semantic",
               "--out", vec_path, "--vocab-out", str(tmp_path / "vocab.txt")])
    assert rc == 0
    rc = main(["evaluate", "--vectors", vec_path, "--k", "10",
               "--seed", "1", "--out", str(tmp_path / "report.txt")])
    assert rc == 0
    report = open(tmp_path / "report.txt", encoding="utf-8").read()
    assert "mean_accuracy\t1.000000" in report


def test_evaluate_notes_models_at_epoch_cap(tmp_path, capsys, monkeypatch):
    labels = ["one", "two"] * 10
    base = {"one": 0, "two": 2}
    vectors = [{base[lab]: 0.9 + 0.01 * (i % 7),
                base[lab] + 1: 0.3 + 0.01 * (i % 5)}
               for i, lab in enumerate(labels)]
    vec_path = str(tmp_path / "vec.txt")
    with open(vec_path, "w", encoding="utf-8") as fh:
        formats.write_vectors(fh, labels, vectors)
    report = str(tmp_path / "report.txt")
    assert main(["evaluate", "--vectors", vec_path, "--out", report]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("", "")
    monkeypatch.setattr(cli, "cross_validate",
                        functools.partial(cross_validate, max_epochs=1))
    assert main(["evaluate", "--vectors", vec_path, "--out", report]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("note: 20 of 20 one-vs-rest models stopped at the "
                   "1-epoch cap\n")
    with open(report, encoding="utf-8") as fh:
        assert fh.read().startswith("examples\t20\n")


def test_query_unknown(chain_inputs, capsys):
    snap = _annotate(chain_inputs)
    rc = main(["query-unknown", "--snapshot", snap, "--class", "4E02"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip()  # emits synset weights or a '-' line


def test_evaluate_missing_vectors_exit_2(tmp_path):
    assert main(["evaluate", "--vectors", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("old, new, problem", [
    ("1\t2\t", "1\t9\t", "edge endpoint 9 is not a declared node"),
    ("2\t4E02\t", "1\t4E02\t", "class id 1 declared twice"),
    ("2\t4E02\t", "2\t4E01 4E02\t", "codepoint 4E01 is in classes 1 and 2"),
])
def test_chains_rejects_inconsistent_snapshot(chain_inputs, capsys,
                                              old, new, problem):
    with open(_annotate(chain_inputs), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(old))
    lines[lineno - 1] = new + lines[lineno - 1][len(old):]
    bad = write(chain_inputs["dir"] / "bad.snap", "\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["chains", "--snapshot", bad, "--kind", "semantic", "--all"])
    assert rc == 2
    assert f"{bad}:{lineno}: {problem}" in capsys.readouterr().err


def test_evaluate_rejects_non_finite_weight(tmp_path, capsys):
    labels = ["one", "two"] * 10
    vectors = [{0 if lab == "one" else 1: 1.0} for lab in labels]
    vectors[3] = {0: math.nan}
    vec_path = str(tmp_path / "vec.txt")
    with open(vec_path, "w", encoding="utf-8") as fh:
        formats.write_vectors(fh, labels, vectors)
    rc = main(["evaluate", "--vectors", vec_path, "--k", "2",
               "--out", str(tmp_path / "report.txt")])
    assert rc == 2
    assert f"{vec_path}:5: non-finite weight '0:nan'" in capsys.readouterr().err
