import functools
import math
import os
import subprocess
import sys
from importlib import resources

import pytest

import sinograph
from sinograph import cli, formats
from sinograph.charstore import Language
from sinograph.classify import cross_validate
from sinograph.cli import main
from sinograph.phonetics import FeatureTable, reading_distance
from sinograph.synthdata import make_dataset

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


@pytest.mark.parametrize("token", ["4_E00", "+4E00", " 4E00", "0x4E00"])
def test_build_graph_rejects_non_hex_codepoint(tmp_path, capsys, token):
    # int(token, 16) reads each of these as 4E00
    strokes = write(tmp_path / "strokes.tsv",
                    f"4E01\t{STROKE_B}\n{token}\t{STROKE_A}\n")
    rc = main(["build-graph", "--strokes", strokes,
               "--out", str(tmp_path / "g.snap")])
    assert rc == 2
    assert (f"strokes.tsv:2: bad hex codepoint {token!r}"
            in capsys.readouterr().err)


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


def test_freqdist_ufl_keeps_every_list_of_one_file_name(tmp_path):
    text = "61\t3\n62\t1\n"
    path = write(tmp_path / "freq.tsv", text)
    copy = write(tmp_path / "copy.tsv", text)
    outs = []
    for lists in ([path, path], [path, copy]):
        out = tmp_path / f"ufl{len(outs)}.tsv"
        assert main(["freqdist", "--lists", *lists, "--n", "2",
                     "--ufl-out", str(out)]) == 0
        outs.append(out.read_text(encoding="utf-8"))
    # two lists over the same two characters each weigh 1
    assert outs == ["61\t1.5\n62\t0.5\n"] * 2


def test_freqdist_names_each_list_by_its_path(tmp_path, capsys):
    paths = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        paths.append(write(tmp_path / d / "freq.tsv", "61\t3\n62\t1\n"))
    assert main(["freqdist", "--lists", *paths, "--n", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split("\t") == ["list", *paths]
    assert [row.split("\t")[0] for row in rows] == paths


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
    ("2\t4E02\t", "2\t-1\t", "codepoint '-1' out of range"),
    ("2\t4E02\t4E02\t", "2\t4E02\t110000\t", "codepoint '110000' out of range"),
    ("2\t4E02\t", "2\t4E_02\t", "bad hex codepoint '4E_02'"),
    ("2\t4E02\t4E02\t", "2\t4E02\t+4E02\t", "bad hex codepoint '+4E02'"),
    ("1\t2\t", "1\t2\tgarbage\tmore\t", "expected 13 tab-separated fields, got 15"),
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


def _run_alone(argv, timeout=30):
    """``sinograph argv`` in its own process, killed after ``timeout`` s."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sinograph.__file__)))
    return subprocess.run([sys.executable, "-m", "sinograph", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    "chains --snapshot {snap} --kind semantic --class 0",
    "chains --snapshot {snap} --kind phonetic --language ja_on --all",
    "features --snapshot {snap} --corpus {corpus} --strategy combined "
    "--out {out}",
    "query-unknown --snapshot {snap} --all",
])
def test_cyclic_snapshot_is_an_input_error(pipeline_files, argv):
    """A snapshot whose EDGES close a cycle is refused on load, before a
    chain walk could circle it forever."""
    with open(pipeline_files["snap"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    at = lines.index("EDGES") + 1
    sub, sup, rest = lines[at].split("\t", 2)
    lines.insert(at + 1, f"{sup}\t{sub}\t{rest}")
    bad = write(pipeline_files["dir"] / "cyclic.snap", "\n".join(lines) + "\n")
    done = _run_alone(argv.format(**dict(pipeline_files, snap=bad)).split())
    assert done.returncode == 2
    assert f"{bad}: graph has a cycle: " in done.stderr


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


def _evaluate_with_line(tmp_path, line):
    """``evaluate`` on 20 clean two-category vectors whose fourth line
    (line 5 of the file) is replaced by ``line``."""
    lines = [f"{lab}\t{0 if lab == 'one' else 1}:1.0"
             for lab in ["one", "two"] * 10]
    lines[3] = line
    vec_path = str(tmp_path / "vec.txt")
    write(vec_path, formats.VECTORS_HEADER + "\n" + "\n".join(lines) + "\n")
    rc = main(["evaluate", "--vectors", vec_path, "--k", "2",
               "--out", str(tmp_path / "report.txt")])
    return rc, vec_path


def test_evaluate_rejects_repeated_feature(tmp_path, capsys):
    rc, vec_path = _evaluate_with_line(tmp_path, "two\t1:0.1 3:0.2 1:0.5")
    assert rc == 2
    assert f"{vec_path}:5: feature 1 repeated" in capsys.readouterr().err


@pytest.mark.parametrize("line, problem", [
    ("two 1:0.5", "no tab after the label"),
    # a third category with one example cannot be in both folds
    ("three\t1:0.5", "category 'three' has 1 examples, fewer than 2"),
])
def test_evaluate_names_the_line_of_a_bad_label(tmp_path, capsys, line, problem):
    rc, vec_path = _evaluate_with_line(tmp_path, line)
    assert rc == 2
    assert f"{vec_path}:5: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("cells", ["1:1e308 3:1e308", "1:1e200 3:1e200",
                                   "1:1e155"])
def test_evaluate_rejects_infinite_norm(tmp_path, capsys, cells):
    rc, vec_path = _evaluate_with_line(tmp_path, "two\t" + cells)
    assert rc == 2
    assert (f"{vec_path}:5: squared norm of the weights is not finite"
            in capsys.readouterr().err)


def test_evaluate_refuses_weights_whose_norm_bound_overflows(tmp_path, capsys):
    # each line passes the per-line norm check, but three such rows in
    # one training set overflow the first step's squared weight norm
    lines = [f"{lab}\t{0 if lab == 'one' else 1}:1.0"
             for lab in ["one", "two"] * 10]
    for i in (1, 3, 5):
        lines[i] = "two\t1:1e154"
    vec_path = write(tmp_path / "vec.txt",
                     formats.VECTORS_HEADER + "\n" + "\n".join(lines) + "\n")
    rc = main(["evaluate", "--vectors", vec_path, "--k", "2",
               "--out", str(tmp_path / "report.txt")])
    assert rc == 3
    assert "too large to train on" in capsys.readouterr().err


@pytest.fixture
def pipeline_files(chain_inputs, tmp_path):
    """Real inputs of every subcommand, so that only a flag is out of range."""
    files = dict(chain_inputs, snap=_annotate(chain_inputs),
                 out=str(tmp_path / "out"), hist=str(tmp_path / "h.csv"))
    files["corpus"] = write(tmp_path / "corpus.tsv",
                            "one\t一一一\ntwo\t丁丁丁\n" * 10)
    files["vectors"] = write(tmp_path / "vec.txt", formats.VECTORS_HEADER + "\n"
                             + "one\t0:1.0\ntwo\t1:1.0\n" * 10)
    files["variants"] = write(tmp_path / "variants.tsv",
                              "4E00\t4E01\n4E01\t4E02\n4E00\t4E02\n")
    files["ufl"] = write(tmp_path / "freq.tsv", "4E00\t5\n4E01\t3\n4E02\t1\n")
    files["table"] = write(tmp_path / "table.tsv", resources.files("sinograph")
                           .joinpath("data/phoneme_features.tsv")
                           .read_text(encoding="utf-8"))
    return files


@pytest.mark.parametrize("argv", [
    "build-graph --strokes {strokes} --out {out} --tolerance -1",
    "build-graph --strokes {strokes} --out {out} --tolerance nan",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 9FFF-4E00",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 4E_00-9FFF",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 4E00-+9FFF",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 0x4E00-9FFF",
    "annotate --snapshot {snap} --out {out} --readings {readings} "
    "--phi-histogram {hist} --bins 0",
    "annotate --snapshot {snap} --out {out} --synsets {synsets} "
    "--coefficients 1 -1 0",
    "annotate --snapshot {snap} --out {out} --synsets {synsets} "
    "--coefficients nan 0 0",
    "annotate --snapshot {snap} --out {out} --synsets {synsets} "
    "--radicals {radicals} --coefficients 0.5 0.25 inf",
    "chains --snapshot {snap} --kind phonetic --all --language xx",
    "features --snapshot {snap} --corpus {corpus} --out {out} --language xx",
    "features --snapshot {snap} --corpus {corpus} --out {out} --min-count 0",
    "evaluate --vectors {vectors} --k 1",
    "evaluate --vectors {vectors} --C 0",
    "evaluate --vectors {vectors} --C nan",
    "query-unknown --snapshot {snap} --all --max-depth 0",
])
def test_out_of_range_flag_is_an_input_error(pipeline_files, capsys, argv):
    capsys.readouterr()
    rc = main([token.format(**pipeline_files) for token in argv.split()])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_annotate_refuses_an_overflowing_semanticity(pipeline_files, capsys):
    # 1.7e308 times a radical agreement of 1 plus any relation count
    # is past the largest float
    capsys.readouterr()
    rc = main(["annotate", "--snapshot", pipeline_files["snap"],
               "--out", pipeline_files["out"],
               "--radicals", pipeline_files["radicals"],
               "--synsets", pipeline_files["synsets"],
               "--relations", pipeline_files["relations"],
               "--coefficients", "1.7e308", "1.7e308", "1.7e308"])
    assert rc == 3
    assert "largest raw semanticity inf is not finite" in capsys.readouterr().err
    assert not os.path.exists(pipeline_files["out"])


def test_annotate_reads_the_readings_of_variant_members(tmp_path, capsys):
    # 4E05 is a variant of 4E00 with the same strokes, so class 0 is
    # {4E00, 4E05}; it can read "nin" like 4E10, which includes it
    strokes = write(tmp_path / "strokes.tsv",
                    "4E00\tH:(1,8)-(9,8);S:(5,8)-(5,1)\n"
                    "4E03\tP:(8,9)-(2,1);N:(2,9)-(8,1)\n"
                    "4E05\tH:(1,8)-(9,8);S:(5,8)-(5,1)\n"
                    "4E10\tH:(1,8)-(9,8);S:(5,8)-(5,1);H:(1,2)-(9,2)\n")
    variants = write(tmp_path / "variants.tsv", "4E00\t4E05\n")
    readings = write(tmp_path / "readings.tsv",
                     "4E00\tja_on\tka\n4E03\tja_on\tsei\n"
                     "4E05\tja_on\tnin\n4E10\tja_on\tnin\n")
    snap, out = str(tmp_path / "g.snap"), str(tmp_path / "a.snap")
    assert main(["build-graph", "--strokes", strokes, "--variants", variants,
                 "--out", snap]) == 0
    assert main(["annotate", "--snapshot", snap, "--out", out,
                 "--readings", readings, "--languages", "ja_on"]) == 0
    g, classes, _ = formats.load_snapshot(out)
    assert {c.id: c.members for c in classes}[0] == {0x4E00, 0x4E05}
    assert g.edges() == [(0, 2)]
    assert g.edge(0, 2).d_min["ja_on"] == 0.0
    assert g.edge(0, 2).phi["ja_on"] == 1.0


def test_seed7_d_min_is_min_over_member_readings(tmp_path, capsys):
    """Recompute every edge's d_min per language from readings.tsv and
    the members listed in NODES: the minimum reading distance over the
    two classes' readings, absent where either class has none."""
    data = str(tmp_path / "data")
    make_dataset(data, seed=7)
    snap, out = str(tmp_path / "g.snap"), str(tmp_path / "a.snap")
    assert main(["build-graph", "--strokes", f"{data}/strokes.tsv",
                 "--variants", f"{data}/variants.tsv",
                 "--ufl", f"{data}/freq.tsv", "--out", snap]) == 0
    assert main(["annotate", "--snapshot", snap, "--out", out,
                 "--readings", f"{data}/readings.tsv"]) == 0
    g, classes, _ = formats.load_snapshot(out)
    by_cp: dict = {}
    for cp, reading in formats.load_readings(f"{data}/readings.tsv"):
        by_cp.setdefault(cp, []).append(reading)
    assert any(len(c.members) > 1 for c in classes)
    table = FeatureTable.load()
    wrong = []
    for lang in Language:
        of_class = {c.id: [r for cp in c.members for r in by_cp.get(cp, ())
                           if r.language is lang] for c in classes}
        for sub, sup in g.edges():
            a, b = of_class[sub], of_class[sup]
            want = (min(reading_distance(x, y, table) for x in a for y in b)
                    if a and b else None)
            if g.edge(sub, sup).d_min.get(lang.value) != want:
                wrong.append((sub, sup, lang.value))
    assert not wrong


@pytest.mark.parametrize("row", ["C", "V\ta\tnan\t0\t0", "C\t\t1\t0\t0\t0"])
def test_annotate_rejects_bad_feature_table_row(chain_inputs, capsys, row):
    lines = resources.files("sinograph").joinpath(
        "data/phoneme_features.tsv").read_text(encoding="utf-8").splitlines()
    lines.insert(2, row)
    path = write(chain_inputs["dir"] / "features.tsv", "\n".join(lines) + "\n")
    snap = str(chain_inputs["dir"] / "g.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", snap]) == 0
    capsys.readouterr()
    rc = main(["annotate", "--snapshot", snap,
               "--out", str(chain_inputs["dir"] / "a.snap"),
               "--readings", chain_inputs["readings"], "--feature-table", path])
    assert rc == 2
    assert f"{path}:3:" in capsys.readouterr().err


def test_annotate_feature_tables_do_not_leak_between_invocations(
        chain_inputs, tmp_path):
    """Each ``annotate`` call memoises distances on its own table: the
    output of a call does not depend on what ran before it in the same
    process."""
    rows = resources.files("sinograph").joinpath(
        "data/phoneme_features.tsv").read_text(encoding="utf-8")
    # moves the nin-kan distance and, by a far onset, the tone penalty
    custom = write(tmp_path / "custom.tsv",
                   rows.replace("V\ta\t2\t3\t0", "V\ta\t3\t3\t0")
                   + "C\tkx\t40\t0\t1\t0\n")
    snap = str(tmp_path / "g.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", snap]) == 0

    def argv(table, out):
        return (["annotate", "--snapshot", snap, "--out", str(out),
                 "--readings", chain_inputs["readings"]]
                + (["--feature-table", custom] if table else []))

    def in_this_process(table, out):
        assert main(argv(table, out)) == 0
        return out.read_bytes()

    def alone(table, out):
        _run_alone(argv(table, out)).check_returncode()
        return out.read_bytes()

    bundled, own = alone(False, tmp_path / "b.snap"), alone(True, tmp_path / "c.snap")
    assert bundled != own
    in_this_process(True, tmp_path / "c1.snap")
    assert in_this_process(False, tmp_path / "b1.snap") == bundled
    assert in_this_process(True, tmp_path / "c2.snap") == own


def test_annotate_takes_a_repeated_language_once(chain_inputs, capsys):
    hists = []
    for languages in ("cmn", "cmn,cmn"):
        hist = chain_inputs["dir"] / f"{languages}.csv"
        _annotate(chain_inputs, extra=["--languages", languages,
                                       "--phi-histogram", str(hist)])
        assert "phi_languages\tcmn\n" in capsys.readouterr().out
        hists.append(hist.read_text(encoding="utf-8"))
    assert hists[1] == hists[0]
    assert len(hists[0].splitlines()) == 1 + 20  # header, one row per bin


def test_readings_unknown_language_names_the_line(chain_inputs, capsys):
    readings = write(chain_inputs["dir"] / "bad_readings.tsv",
                     "4E00\tja_on\tnin\n4E01\txx\tnin\n")
    snap = str(chain_inputs["dir"] / "g.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", snap]) == 0
    capsys.readouterr()
    rc = main(["annotate", "--snapshot", snap,
               "--out", str(chain_inputs["dir"] / "a.snap"), "--readings", readings])
    assert rc == 2
    assert f"{readings}:2: unknown language code 'xx'" in capsys.readouterr().err


def test_build_graph_rejects_degenerate_stroke_of_a_pair(tmp_path, capsys):
    strokes = write(tmp_path / "strokes.tsv",
                    "4E01\tH:(1,5)-(9,5)\n"
                    "4E00\tH:(1,1)-(1,1);S:(5,9)-(5,1)\n")
    rc = main(["build-graph", "--strokes", strokes,
               "--out", str(tmp_path / "g.snap")])
    assert rc == 2
    assert (f"{strokes}:2: stroke 0 is degenerate (coincident endpoints)"
            in capsys.readouterr().err)


# (column of the first EDGES line, new value, problem); the columns are
# sub, super, d_min and phi of cmn, ja_on and ja_kun, f1, f2, r, s_raw, s
@pytest.mark.parametrize("column, value, problem", [
    (5, "nan", "phi 'nan' is not a finite number in [0, 1]"),
    (5, "7.5", "phi '7.5' is not a finite number in [0, 1]"),
    (4, "-0.5", "d_min '-0.5' is not a finite number >= 0"),
    (11, "inf", "s_raw 'inf' is not a finite number >= 0"),
    (10, "1.5", "r '1.5' is not a finite number in [0, 1]"),
    (12, "-1", "s '-1' is not a finite number in [0, 1]"),
    (8, "-2", "f1 '-2' is negative"),
])
def test_chains_rejects_out_of_range_edge_weight(chain_inputs, capsys,
                                                 column, value, problem):
    with open(_annotate(chain_inputs), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lineno = lines.index("EDGES") + 2
    fields = lines[lineno - 1].split("\t")
    fields[column] = value
    lines[lineno - 1] = "\t".join(fields)
    bad = write(chain_inputs["dir"] / "bad.snap", "\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["chains", "--snapshot", bad, "--kind", "phonetic",
               "--language", "ja_on", "--all"])
    assert rc == 2
    assert f"{bad}:{lineno}: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("name, at, line, message", [
    ("synsets", 1, "s_sub\t上", "2: duplicate synset id 's_sub'"),
    ("relations", 0, "s_sup\thyponymy\ts_none",
     "1: relation target 's_none' is not a declared synset"),
    ("relations", 0, "s_none\thyponymy\ts_sup",
     "1: relation source 's_none' is not a declared synset"),
    ("radicals", 2, "4E01\t2", "3: duplicate codepoint 4E01"),
])
def test_annotate_names_the_line_of_a_bad_record(pipeline_files, capsys,
                                                 name, at, line, message):
    path = pipeline_files[name]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines.insert(at, line)
    write(path, "\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["annotate", "--snapshot", pipeline_files["snap"],
               "--out", pipeline_files["out"],
               "--radicals", pipeline_files["radicals"],
               "--synsets", pipeline_files["synsets"],
               "--relations", pipeline_files["relations"]])
    assert rc == 2
    assert f"{path}:{message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--relations", "--definitions"])
def test_annotate_refuses_synset_files_without_synsets(pipeline_files, capsys,
                                                       flag):
    capsys.readouterr()
    rc = main(["annotate", "--snapshot", pipeline_files["snap"],
               "--out", pipeline_files["out"],
               "--radicals", pipeline_files["radicals"],
               flag, pipeline_files[flag[2:]]])
    assert rc == 2
    assert f"{flag} needs --synsets" in capsys.readouterr().err


ANNOTATE = "annotate --snapshot {snap} --out {out}"


# every flag of every subcommand that reads a file
@pytest.mark.parametrize("name, argv", [
    ("strokes", "build-graph --strokes {strokes} --out {out}"),
    ("variants", "build-graph --strokes {strokes} --variants {variants} --out {out}"),
    ("ufl", "build-graph --strokes {strokes} --ufl {ufl} --out {out}"),
    ("snap", ANNOTATE),
    ("readings", ANNOTATE + " --readings {readings}"),
    ("radicals", ANNOTATE + " --radicals {radicals}"),
    ("synsets", ANNOTATE + " --synsets {synsets}"),
    ("relations", ANNOTATE + " --synsets {synsets} --relations {relations}"),
    ("definitions", ANNOTATE + " --synsets {synsets} --definitions {definitions}"),
    ("table", ANNOTATE + " --readings {readings} --feature-table {table}"),
    ("snap", "chains --snapshot {snap} --kind semantic --all"),
    ("ufl", "freqdist --lists {ufl} {ufl}"),
    ("snap", "features --snapshot {snap} --corpus {corpus} --out {out}"),
    ("corpus", "features --snapshot {snap} --corpus {corpus} --out {out}"),
    ("vectors", "evaluate --vectors {vectors} --k 2"),
    ("snap", "query-unknown --snapshot {snap} --all"),
])
def test_non_utf8_input_names_the_line(pipeline_files, capsys, name, argv):
    path = pipeline_files[name]
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    at = min(2, len(lines) - 1)  # the third line, or the last of a shorter file
    lines[at] = b"\xff" + lines[at]
    with open(path, "wb") as fh:
        fh.write(b"".join(lines))
    capsys.readouterr()
    rc = main([token.format(**pipeline_files) for token in argv.split()])
    assert rc == 2
    assert f"{path}:{at + 1}: not valid UTF-8" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sinograph.__file__)))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, sinograph.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert loaded.strip() == "[]"
