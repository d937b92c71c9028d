import argparse
import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import sinograph
from sinograph import cli, formats, synthdata
from sinograph.charstore import AllographClass, CharacterStore, Language, Reading
from sinograph.classify import cross_validate
from sinograph.cli import main
from sinograph.errors import InputError
from sinograph.graphcore import EdgeData, InclusionGraph
from sinograph.phonetics import FeatureTable, reading_distance
from sinograph.semantics import SemRelation
from sinograph.strokesig import Stroke, char_signature
from sinograph.synthdata import make_dataset

from test_formats import written_snapshot

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
    g, _, _ = formats.load_file(formats.parse_snapshot, out)
    assert g.edge_count() == 2


def test_build_graph_refuses_a_class_cycle(chain_inputs, capsys):
    # A in B in C, with A and C variants of one class: the lifted edges
    # run from that class to B's and back
    variants = write(chain_inputs["dir"] / "variants.tsv", "4E00\t4E02\n")
    out = chain_inputs["dir"] / "g.snap"
    rc = main(["build-graph", "--strokes", chain_inputs["strokes"],
               "--variants", variants, "--out", str(out)])
    assert rc == 3
    assert "graph has a cycle: 0 -> 1 -> 0" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("spec, problem", [
    ("H:", "malformed coordinates in stroke 'H:'"),
    ("H:(1,2,3)-(4,5)", "malformed point '1,2,3' in stroke 'H:(1,2,3)-(4,5)'"),
    (";", "empty stroke description"),
])
def test_build_graph_rejects_a_malformed_stroke_description(tmp_path, capsys,
                                                             spec, problem):
    strokes = write(tmp_path / "strokes.tsv", f"4E00\t{spec}\n4E01\t{STROKE_B}\n")
    rc = main(["build-graph", "--strokes", strokes,
               "--out", str(tmp_path / "g.snap")])
    assert rc == 2
    assert f"strokes.tsv:1: {problem}" in capsys.readouterr().err


def test_build_graph_skips_a_trailing_semicolon(tmp_path):
    snaps = []
    for end in ("", ";"):
        strokes = write(tmp_path / "strokes.tsv",
                        "".join(f"{cp}\t{spec}{end}\n" for cp, spec in
                                (("4E00", STROKE_A), ("4E01", STROKE_B),
                                 ("4E02", STROKE_C))))
        out = tmp_path / f"g{len(snaps)}.snap"
        assert main(["build-graph", "--strokes", strokes, "--out", str(out)]) == 0
        snaps.append(out.read_bytes())
    assert snaps[0] == snaps[1]


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
    g, store, annotations = formats.load_file(formats.parse_snapshot, out)
    a, b = store.class_of[0x4E00], store.class_of[0x4E01]
    edge = g.edge(a, b)
    assert edge.phi["ja_on"] == pytest.approx(1.0)  # shared "nin"
    assert edge.f1 == 1  # synset relation s_sub -> s_sup
    assert edge.r == 1.0  # same radical
    assert edge.s == 1.0
    assert annotations  # definitions matched lemmas
    assert "phi_dmax_ja_on" in g.meta


def test_reannotating_drops_phoneticity_an_edge_lost(chain_inputs, capsys):
    """A second pass without 4E02's cmn reading leaves the edge into it
    without cmn values; every cmn phi left matches the new maximum, and
    ja_on, not asked for, keeps the first pass's values."""
    write(chain_inputs["readings"],
          "4E00\tcmn\tren2\n4E01\tcmn\tren4\n4E02\tcmn\tkan1\n"
          "4E00\tja_on\tnin\n4E01\tja_on\tnin\n4E02\tja_on\tkan\n")
    first = _annotate(chain_inputs)
    again = str(chain_inputs["dir"] / "b.snap")
    assert main(["annotate", "--snapshot", first, "--out", again,
                 "--languages", "cmn", "--readings", write(
                     chain_inputs["dir"] / "r2.tsv",
                     "4E00\tcmn\tren2\n4E01\tcmn\tren4\n")]) == 0
    g1, _, _ = formats.load_file(formats.parse_snapshot, first)
    g2, store, _ = formats.load_file(formats.parse_snapshot, again)
    lost = store.class_of[0x4E01], store.class_of[0x4E02]
    assert "cmn" in g1.edge(*lost).phi
    assert "cmn" not in g2.edge(*lost).phi
    assert "cmn" not in g2.edge(*lost).d_min
    d_max = float(g2.meta["phi_dmax_cmn"])
    with_phi = [g2.edge(*e) for e in g2.edges() if "cmn" in g2.edge(*e).phi]
    assert with_phi
    for data in with_phi:
        assert data.phi["cmn"] == 1 - data.d_min["cmn"] / d_max
    for e in g1.edges():
        assert g2.edge(*e).phi.get("ja_on") == g1.edge(*e).phi.get("ja_on")
        assert g2.edge(*e).d_min.get("ja_on") == g1.edge(*e).d_min.get("ja_on")
    assert g2.meta["phi_dmax_ja_on"] == g1.meta["phi_dmax_ja_on"]


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
    g, _, _ = formats.load_file(formats.parse_snapshot, out)
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
    lines = Path(chains_file).read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3
    # class of 4E02 descends to its least phonetic subcharacter
    rc = main(["chains", "--snapshot", out, "--kind", "semantic",
               "--class", "U+4E02", "--out", chains_file])
    assert rc == 0
    hist = (chain_inputs["dir"] / "h.csv").read_text(encoding="utf-8")
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
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "mean_accuracy\t1.000000" in report


def test_features_refuses_a_label_evaluate_would_refuse(chain_inputs, tmp_path,
                                                       capsys):
    snap = _annotate(chain_inputs)
    corpus = write(tmp_path / "corpus.tsv", "one\t一\none two\t丂\n")
    out = str(tmp_path / "vec.txt")
    capsys.readouterr()
    rc = main(["features", "--snapshot", snap, "--corpus", corpus,
               "--min-count", "1", "--out", out])
    assert rc == 2
    assert f"{corpus}:2: bad label 'one two'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_features_on_an_unannotated_snapshot_writes_no_file(chain_inputs,
                                                           tmp_path, capsys):
    # the semantic walk needs S on every edge; the graph carries none
    graph = str(tmp_path / "g.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", graph]) == 0
    corpus = write(tmp_path / "corpus.tsv", "one\t一丁丂\n" * 10)
    out = str(tmp_path / "vec.txt")
    capsys.readouterr()
    rc = main(["features", "--snapshot", graph, "--corpus", corpus,
               "--strategy", "semantic", "--out", out])
    assert rc == 3
    assert "semanticity" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def seed7_files(tmp_path_factory):
    """The seed-7 inputs, their graph and its annotated snapshot."""
    base = tmp_path_factory.mktemp("seed7")
    files = make_dataset(str(base / "data"), seed=7)
    files["graph"], files["snap"] = str(base / "g.snap"), str(base / "a.snap")
    files["build_graph"] = [
        "build-graph", "--strokes", files["strokes"],
        "--variants", files["variants"], "--ufl", files["freq"],
        "--out", files["graph"]]
    assert main(files["build_graph"]) == 0
    assert main(["annotate", "--snapshot", files["graph"], "--out", files["snap"],
                 "--readings", files["readings"], "--radicals", files["radicals"],
                 "--synsets", files["synsets"], "--relations", files["relations"],
                 "--definitions", files["definitions"]]) == 0
    return files


def _traced_peak(argv):
    """Peak bytes tracemalloc traces while ``main(argv)`` runs, after one
    untraced run has filled what a first call in a process fills."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_graph_holds_one_stage_at_a_time(seed7_files, capsys):
    # held together to the end, the stages take about 2.4 MB
    assert _traced_peak(seed7_files["build_graph"]) < 1.5e6


def test_build_graph_frees_each_characters_strokes_for_its_signature(
        tmp_path, capsys):
    """On 100 characters of 30 random strokes each (no inclusions, so
    the parse and the signatures are the peak), build-graph holds the
    strokes not yet signed and the signatures made so far; holding every
    character's strokes until every signature exists would reach at
    least their sum."""
    rng = random.Random(0)
    lines = []
    for i in range(100):
        items = []
        for _ in range(30):
            x1, y1, x2, y2 = rng.sample(range(100), 4)
            items.append(f"{rng.choice('HSPDT')}:({x1},{y1})-({x2},{y2})")
        lines.append(f"{0x4E00 + i:04X}\t" + ";".join(items))
    path = write(tmp_path / "strokes.tsv", "\n".join(lines) + "\n")
    peak = _traced_peak(["build-graph", "--strokes", path,
                         "--out", str(tmp_path / "g.snap")])
    tracemalloc.start()
    try:
        strokes = formats.load_file(formats.parse_strokes, path)
        parsed = tracemalloc.get_traced_memory()[0]
        sigs = [char_signature(s) for s in strokes.values()]
        both = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sigs) == 100 and both > 1.3 * parsed
    assert peak < 0.9 * both


def test_pipeline_records_hold_no_attribute_dict():
    """The records made in bulk keep their fields in slots, so no
    instance carries a ``__dict__``; the frozen ones stay frozen."""
    stroke = Stroke("H", ((0.0, 0.0), (1.0, 0.0)))
    frozen = [stroke, Reading(Language.MANDARIN, ("ren2",)),
              AllographClass(0, frozenset({0x4E00}), 0x4E00),
              SemRelation("s1", "hyponymy", "s2")]
    for record in frozen + [char_signature([stroke, stroke]), EdgeData()]:
        assert not hasattr(record, "__dict__"), type(record).__name__
    for record in frozen:
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))


def test_a_loaded_snapshot_holds_each_edge_once(seed7_files):
    """The annotated seed-7 snapshot, loaded with its classes and
    annotations, holds about 1.2 kB per edge; a second per-edge index
    (an edge-keyed dict beside the successor maps) takes it to 1.4 kB."""
    load = functools.partial(formats.load_file, formats.parse_snapshot,
                             seed7_files["snap"])
    load()
    tracemalloc.start()
    try:
        g, store, annotations = load()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1300 * g.edge_count()


def test_features_peak_grows_with_the_corpus_text_only(seed7_files, tmp_path,
                                                       capsys):
    """Four copies of the corpus add a few bytes per added corpus byte,
    for the text and its lines; every document's counts and vectors
    held at once would add about 36."""
    with open(seed7_files["corpus"], encoding="utf-8") as fh:
        text = fh.read()
    corpus4 = write(tmp_path / "corpus4.tsv", text * 4)
    peaks = [_traced_peak(["features", "--snapshot", seed7_files["snap"],
                           "--corpus", corpus, "--strategy", "combined",
                           "--out", str(tmp_path / "vec.txt")])
             for corpus in (seed7_files["corpus"], corpus4)]
    added = 3 * len(text.encode("utf-8"))
    assert peaks[1] - peaks[0] < 6 * added


def test_crlf_inputs_write_the_same_artefacts(seed7_files, tmp_path, capsys):
    """build-graph, annotate and combined features write the same bytes,
    and print the same summaries, on CRLF copies of the seed-7 inputs."""
    crlf = {}
    for name in ("strokes", "variants", "freq", "readings", "radicals",
                 "synsets", "relations", "definitions", "corpus"):
        with open(seed7_files[name], "rb") as fh:
            raw = fh.read()
        assert b"\r" not in raw
        crlf[name] = str(tmp_path / f"{name}.tsv")
        with open(crlf[name], "wb") as fh:
            fh.write(raw.replace(b"\n", b"\r\n"))
    written = {}
    for files in (seed7_files, crlf):
        out = tmp_path / ("crlf" if files is crlf else "lf")
        out.mkdir()
        argvs = [
            ["build-graph", "--strokes", files["strokes"], "--variants",
             files["variants"], "--ufl", files["freq"], "--out", str(out / "g.snap")],
            ["annotate", "--snapshot", str(out / "g.snap"), "--out", str(out / "a.snap"),
             "--readings", files["readings"], "--radicals", files["radicals"],
             "--synsets", files["synsets"], "--relations", files["relations"],
             "--definitions", files["definitions"]],
            ["features", "--snapshot", str(out / "a.snap"), "--corpus", files["corpus"],
             "--strategy", "combined", "--out", str(out / "vectors.txt")]]
        capsys.readouterr()
        for argv in argvs:
            assert main(argv) == 0
        written[files is crlf] = [capsys.readouterr().out] + [
            (out / name).read_bytes() for name in ("g.snap", "a.snap", "vectors.txt")]
    assert written[True] == written[False]


def test_evaluate_notes_models_at_iteration_cap(tmp_path, capsys, monkeypatch):
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
                        functools.partial(cross_validate, max_iterations=1))
    assert main(["evaluate", "--vectors", vec_path, "--out", report]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("note: 20 of 20 one-vs-rest models stopped at the "
                   "1-iteration cap\n")
    with open(report, encoding="utf-8") as fh:
        assert fh.read().startswith("examples\t20\n")


def test_evaluate_converges_on_categories_of_disjoint_features(tmp_path, capsys):
    # easy data on which a stopping rule on the objective's relative
    # change never fires: every model must converge before the cap
    labels = ["one", "two"] * 10
    vectors = [{0: 1.0, 1: 0.1 * (i % 3)} if lab == "one"
               else {2: 1.0, 3: 0.1 * (i % 3)} for i, lab in enumerate(labels)]
    vec_path = str(tmp_path / "vec.txt")
    with open(vec_path, "w", encoding="utf-8") as fh:
        formats.write_vectors(fh, labels, vectors)
    assert main(["evaluate", "--vectors", vec_path, "--k", "10",
                 "--out", str(tmp_path / "report.txt")]) == 0
    assert capsys.readouterr() == ("", "")


def test_query_unknown(chain_inputs, capsys):
    snap = _annotate(chain_inputs)
    rc = main(["query-unknown", "--snapshot", snap, "--class", "U+4E02"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip()  # emits synset weights or a '-' line


def test_query_unknown_walks_a_path_deeper_than_the_stack(tmp_path, capsys):
    """A path of 1,499 steps, past Python's recursion limit, is walked:
    the only annotated class is the far end of a chain with S = 1."""
    n = 1500
    g = InclusionGraph()
    for cid in range(n - 1):
        g.add_edge(cid + 1, cid, EdgeData(s=1.0))
    snap = str(tmp_path / "chain.snap")
    formats.save_snapshot(snap, g, CharacterStore(range(0x4E00, 0x4E00 + n)),
                          {n - 1: {"syn1"}})
    assert main(["query-unknown", "--snapshot", snap, "--class", "0",
                 "--max-depth", "2000"]) == 0
    assert capsys.readouterr().out == "0\tsyn1\t1.000000\n"


def test_query_unknown_stops_where_no_path_goes_on(seed7_files, capsys):
    """A depth far past the longest path answers as one just past it."""
    g, _, _ = formats.load_file(formats.parse_snapshot, seed7_files["snap"])
    outs = []
    for depth in (len(g.nodes), 100000000000):
        capsys.readouterr()
        assert main(["query-unknown", "--snapshot", seed7_files["snap"], "--all",
                     "--max-depth", str(depth)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cell, sid", [
    ("", ""), ("syn1||syn2", ""), ("syn1|-", "-"), ("-|syn1", "-"),
])
def test_snapshot_synsets_cell_holds_synset_ids(tmp_path, capsys, cell, sid):
    """A NODES synsets cell is "-" or synset ids joined by "|", each id
    held to the rule of synsets.tsv."""
    g = InclusionGraph()
    g.add_edge(0, 1, EdgeData(s=1.0))
    snap = str(tmp_path / "g.snap")
    formats.save_snapshot(snap, g, CharacterStore({0x4E00, 0x4E01}),
                          {1: {"syn1"}})
    with open(snap, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lineno = lines.index("1\t4E01\t4E01\tsyn1") + 1
    lines[lineno - 1] = f"1\t4E01\t4E01\t{cell}"
    write(snap, "\n".join(lines) + "\n")
    problem = (f"{snap}:{lineno}: bad synset id {sid!r}: it must be "
               f"nonempty, not '-', and hold no '|'")
    with pytest.raises(InputError) as exc:
        formats.load_file(formats.parse_snapshot, snap)
    assert str(exc.value) == problem
    assert main(["query-unknown", "--snapshot", snap, "--class", "0"]) == 2
    assert problem in capsys.readouterr().err


def test_evaluate_missing_vectors_exit_2(tmp_path):
    assert main(["evaluate", "--vectors", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("old, new, problem", [
    ("1\t2\t", "1\t9\t", "edge endpoint 9 is not a declared node"),
    ("2\t4E02\t", "1\t4E02\t", "class id 1 declared twice"),
    ("2\t4E02\t", "2\t4E01 4E02\t", "codepoint 4E01 is in classes 1 and 2"),
    ("2\t4E02\t", "2\t-1\t", "codepoint '-1' out of range"),
    ("2\t4E02\t", "2\t-0\t", "bad hex codepoint '-0'"),
    ("2\t4E02\t4E02\t", "2\t4E02\t110000\t", "codepoint '110000' out of range"),
    ("2\t4E02\t", "2\t4E_02\t", "bad hex codepoint '4E_02'"),
    ("2\t4E02\t4E02\t", "2\t4E02\t+4E02\t", "bad hex codepoint '+4E02'"),
    ("1\t2\t", "1\t2\tgarbage\tmore\t", "expected 13 tab-separated fields, got 15"),
    # every section refuses a wrong field count alike
    ("tolerance\t", "tolerance\tx\t", "expected 2 tab-separated fields, got 3"),
    ("2\t4E02\t4E02\t", "2\t4E02\t", "expected 4 tab-separated fields, got 3"),
    ("2\t4E02\t4E02\t", "2\t4E02\t4E02\tx\t",
     "expected 4 tab-separated fields, got 5"),
    ("1\t2\t", "1\t", "expected 13 tab-separated fields, got 12"),
    ("1\t2\t", "1\t2\tgarbage\t", "expected 13 tab-separated fields, got 14"),
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


@pytest.mark.parametrize("token", ["+7", "７", "7_0", " 7"])
def test_synthdata_seed_takes_ascii_digits_only(tmp_path, capsys, token):
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        synthdata.main([str(out), "--seed", token])
    assert exc.value.code == 2
    assert "invalid decimal value" in capsys.readouterr().err
    assert not out.exists()


def test_snapshot_nodes_out_of_id_order_are_read_in_id_order(chain_inputs, capsys):
    with open(_annotate(chain_inputs), encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    start, end = lines.index("NODES") + 1, lines.index("EDGES")
    assert end - start == 3
    lines[start:end] = reversed(lines[start:end])
    shuffled = write(chain_inputs["dir"] / "shuffled.snap", "\n".join(lines) + "\n")
    g, store, annotations = formats.load_file(formats.parse_snapshot, shuffled)
    assert written_snapshot(g, store, annotations) == text
    capsys.readouterr()
    assert main(["chains", "--snapshot", shuffled, "--kind", "semantic",
                 "--all"]) == 0
    ids = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
    assert ids == ["0", "1", "2"]


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
    ("two 1:0.5", "expected 2 tab-separated fields, got 1"),
    # a third category with one example cannot be in both folds
    ("three\t1:0.5", "category 'three' has 1 examples, fewer than 2"),
    # the report joins the categories with " ", so it could not be read
    ("t wo\t1:0.5", "bad label 't wo'"),
    ("\t1:0.5", "bad label ''"),
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


def test_evaluate_refuses_weights_whose_system_is_singular(tmp_path, capsys):
    # two columns that repeat one another: at C = 1e20, lambda = 1/(C n)
    # is lost beside rho X'X, so the ADMM system has no inverse in floats
    lines = [f"{lab}\t" + ("0:1e10 1:1e10" if lab == "one" else "2:1.0")
             for lab in ["one", "two"] * 10]
    vec_path = write(tmp_path / "vec.txt",
                     formats.VECTORS_HEADER + "\n" + "\n".join(lines) + "\n")
    rc = main(["evaluate", "--vectors", vec_path, "--k", "2", "--C", "1e20",
               "--out", str(tmp_path / "report.txt")])
    assert rc == 3
    assert ("too large to train on at C=1e+20: rho X'X + lambda I is singular"
            in capsys.readouterr().err)


@pytest.mark.parametrize("C, lines, accuracy", [
    # lambda = 1/(C n) overflows to inf: the weights train to w = 0, and
    # ties go to the first of five equal categories
    ("5e-324", [f"c{i % 5}\t{i % 5}:1.0" for i in range(20)], 0.2),
    # lambda is lost beside one 1e10 column, but no column repeats it
    ("1e20", [f"{lab}\t" + ("0:1e10" if lab == "one" else "2:1.0")
              for lab in ["one", "two"] * 10], 1.0),
])
def test_evaluate_trains_on_systems_beside_the_singular_ones(tmp_path, C, lines,
                                                             accuracy):
    vec_path = write(tmp_path / "vec.txt",
                     formats.VECTORS_HEADER + "\n" + "\n".join(lines) + "\n")
    report = tmp_path / "report.txt"
    rc = main(["evaluate", "--vectors", vec_path, "--k", "2", "--C", C,
               "--out", str(report)])
    assert rc == 0
    assert f"mean_accuracy\t{accuracy:.6f}" in report.read_text().splitlines()


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
    "build-graph --strokes {strokes} --out {out} --tolerance inf",
    "build-graph --strokes {strokes} --out {out} --tolerance 1e400",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 9FFF-4E00",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 4E_00-9FFF",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 4E00-+9FFF",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 0x4E00-9FFF",
    "build-graph --strokes {strokes} --out {out} --codepoint-range 4E00-110000",
    "annotate --snapshot {snap} --out {out} --readings {readings} "
    "--phi-histogram {hist} --bins 0",
    "annotate --snapshot {snap} --out {out} --readings {readings} "
    "--phi-histogram {hist} --bins 100000000000000000000",
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
    "evaluate --vectors {vectors} --C inf",
    "evaluate --vectors {vectors} --C 1e400",
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
    g, store, _ = formats.load_file(formats.parse_snapshot, out)
    assert store.by_id[0].members == {0x4E00, 0x4E05}
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
    g, store, _ = formats.load_file(formats.parse_snapshot, out)
    classes = store.classes
    by_cp: dict = {}
    for cp, reading in formats.load_file(formats.parse_readings,
                                         f"{data}/readings.tsv"):
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


@pytest.mark.parametrize("row, at, problem", [
    ("C", 2, ""),
    ("V\ta\tnan\t0\t0", 2, ""),
    ("C\t\t1\t0\t0\t0", 2, ""),
    # appended after the bundled rows, which define the consonant b and
    # the vowel a
    ("C\tb\t9\t9\t9\t9", None, "C symbol 'b' defined twice"),
    ("V\ta\t3\t3\t1", None, "V symbol 'a' defined twice"),
    # nuclei are matched one character at a time: "kai" would read as "ka"
    ("V\tai\t3\t3\t1", None, "vowel symbol 'ai' is longer than one character"),
])
def test_annotate_rejects_bad_feature_table_row(chain_inputs, capsys,
                                                row, at, problem):
    lines = resources.files("sinograph").joinpath(
        "data/phoneme_features.tsv").read_text(encoding="utf-8").splitlines()
    lines.insert(len(lines) if at is None else at, row)
    path = write(chain_inputs["dir"] / "features.tsv", "\n".join(lines) + "\n")
    snap = str(chain_inputs["dir"] / "g.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", snap]) == 0
    capsys.readouterr()
    rc = main(["annotate", "--snapshot", snap,
               "--out", str(chain_inputs["dir"] / "a.snap"),
               "--readings", chain_inputs["readings"], "--feature-table", path])
    assert rc == 2
    assert f"{path}:{lines.index(row) + 1}: {problem}" in capsys.readouterr().err


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
    (8, "-2", "f1 '-2' is not an integer >= 0"),
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
    ("synsets", 1, "a|b\t上", "2: bad synset id 'a|b'"),
    ("synsets", 1, "-\t上", "2: bad synset id '-'"),
    ("synsets", 1, "\t上", "2: bad synset id ''"),
    ("relations", 0, "s_sup\thyponymy\ts_none",
     "1: relation target 's_none' is not a declared synset"),
    ("relations", 0, "s_none\thyponymy\ts_sup",
     "1: relation source 's_none' is not a declared synset"),
    ("radicals", 2, "4E01\t2", "3: duplicate codepoint 4E01"),
    ("definitions", 1, "4E01\t", "2: codepoint 4E01 has no gloss words"),
    ("definitions", 1, "4E01\t|", "2: codepoint 4E01 has no gloss words"),
    ("definitions", 0, "4E02\t||", "1: codepoint 4E02 has no gloss words"),
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
               "--relations", pipeline_files["relations"],
               "--definitions", pipeline_files["definitions"]])
    assert rc == 2
    assert f"{path}:{message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, needed", [
    ("--relations", "{relations}", "--synsets"),
    ("--definitions", "{definitions}", "--synsets"),
    ("--phi-histogram", "{hist}", "--readings"),
    ("--languages", "cmn", "--readings"),
    ("--feature-table", "{table}", "--readings"),
])
def test_annotate_refuses_a_flag_without_the_file_it_acts_on(
        pipeline_files, capsys, flag, value, needed):
    # --bins 0 would be refused only if a histogram were made
    argv = (f"annotate --snapshot {{snap}} --out {{out}} --radicals {{radicals}} "
            f"--bins 0 {flag} {value}")
    capsys.readouterr()
    rc = main([token.format(**pipeline_files) for token in argv.split()])
    assert rc == 2
    assert f"{flag} needs {needed}" in capsys.readouterr().err
    assert not os.path.exists(pipeline_files["hist"])


@pytest.mark.parametrize("records, where", [
    ("", ""),
    ("a\t0:1\n" * 10, ":2"),
], ids=["header only", "one label"])
def test_evaluate_names_the_file_without_two_categories(tmp_path, capsys,
                                                         records, where):
    vectors = write(tmp_path / "vec.txt", formats.VECTORS_HEADER + "\n" + records)
    capsys.readouterr()
    assert main(["evaluate", "--vectors", vectors]) == 2
    count = 1 if records else 0
    assert (f"{vectors}{where}: need at least two categories, got {count}"
            in capsys.readouterr().err)


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


@pytest.mark.parametrize("package", ["scipy", "numpy"])
def test_cli_import_loads_no_scipy(package):
    # numpy loads only when evaluate trains a classifier
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sinograph.__file__)))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, sinograph.cli; "
         f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("languages", [[], ["--languages", "ja_on"]])
def test_annotate_refuses_a_feature_table_without_finite_distances(
        pipeline_files, capsys, languages):
    # squared, 1e200 is past the largest float; only cmn's tone penalty
    # reads the largest distance, but the table itself is refused
    path = pipeline_files["table"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lineno = lines.index("C\tb\t1\t1\t1\t0") + 1
    lines[lineno - 1] = "C\tb\t1e200\t1\t1\t0"
    write(path, "\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["annotate", "--snapshot", pipeline_files["snap"],
               "--out", pipeline_files["out"],
               "--readings", pipeline_files["readings"],
               "--feature-table", path, *languages])
    assert rc == 2
    assert (f"input error: {path}:{lineno}: scale value '1e200' is not a finite "
            f"number in [-1e+100, 1e+100]" in capsys.readouterr().err)


@pytest.mark.parametrize("record, token", [("4E00\tcmn\t5", "5"),
                                           ("4E02\tja_kun\thi 2", "2")])
def test_a_tone_only_syllable_names_its_line(chain_inputs, capsys, record, token):
    readings = chain_inputs["readings"]
    with open(readings, encoding="utf-8") as fh:
        lineno = len(fh.read().splitlines()) + 1
    with open(readings, "a", encoding="utf-8") as fh:
        fh.write(record + "\n")
    snap = str(chain_inputs["dir"] / "g.snap")
    assert main(["build-graph", "--strokes", chain_inputs["strokes"],
                 "--out", snap]) == 0
    capsys.readouterr()
    rc = main(["annotate", "--snapshot", snap,
               "--out", str(chain_inputs["dir"] / "a.snap"), "--readings", readings])
    assert rc == 2
    assert (f"input error: {readings}:{lineno}: empty syllable token {token!r}"
            in capsys.readouterr().err)


def _flag_actions():
    """(subcommand, action) of every argument of every subcommand."""
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    for name, sub in commands.items():
        for action in sub._actions:
            yield name, action


def _string_flags():
    """(subcommand, flag) of every flag that takes a string without fixed
    choices; argparse itself refuses an empty value of the others."""
    for name, action in _flag_actions():
        if (action.option_strings and action.nargs != 0
                and action.type is None and action.choices is None):
            yield name, action.option_strings[0]


# each subcommand with its required flags only, on real inputs
REQUIRED_FLAGS = {
    "build-graph": "--strokes {strokes} --out {out}",
    "annotate": "--snapshot {snap} --out {out}",
    "chains": "--snapshot {snap} --kind semantic --class 0",
    "freqdist": "--lists {ufl} {ufl}",
    "features": "--snapshot {snap} --corpus {corpus} --out {out}",
    "evaluate": "--vectors {vectors}",
    "query-unknown": "--snapshot {snap} --class 0",
}


def test_every_string_flag_has_an_empty_value_row():
    assert {flag for _, flag in _string_flags()} == {
        "--strokes", "--variants", "--ufl", "--codepoint-range", "--out",
        "--snapshot", "--readings", "--radicals", "--synsets", "--relations",
        "--definitions", "--languages", "--feature-table", "--phi-histogram",
        "--class", "--language", "--lists", "--ufl-out", "--corpus",
        "--vocab-out", "--vectors"}
    assert {name for name, _ in _string_flags()} == set(REQUIRED_FLAGS)


@pytest.mark.parametrize("command, flag", sorted(_string_flags()))
def test_an_empty_flag_value_is_an_input_error(pipeline_files, capsys, command,
                                               flag):
    # a flag already given takes "" for its first value; any other is added
    argv = [command, *(token.format(**pipeline_files)
                       for token in REQUIRED_FLAGS[command].split())]
    if flag in argv:
        argv[argv.index(flag) + 1] = ""
    else:
        argv += [flag, ""]
    before = sorted(os.listdir(pipeline_files["dir"]))
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"input error: {flag} has an empty value" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(pipeline_files["dir"])) == before


def _integer_flags():
    """(subcommand, flag, action) of every flag that takes an integer."""
    for name, action in _flag_actions():
        if action.type in (int, formats.decimal) or type(action.default) is int:
            yield name, action.option_strings[0], action


def test_every_integer_flag_takes_ascii_digits_only():
    flags = list(_integer_flags())
    assert {(name, flag) for name, flag, _ in flags} == {
        ("annotate", "--bins"), ("freqdist", "--n"), ("features", "--min-count"),
        ("evaluate", "--k"), ("evaluate", "--seed"), ("query-unknown", "--max-depth")}
    for name, flag, action in flags:
        assert action.type("3") == 3 and action.type("-3") == -3
        for token in ("+3", "1_0", "３"):
            with pytest.raises(ValueError):
                action.type(token)


@pytest.mark.parametrize("argv", [
    "evaluate --vectors {vectors} --k +3",
    "evaluate --vectors {vectors} --k １０",
    "freqdist --lists {ufl} {ufl} --n 1_0",
    "features --snapshot {snap} --corpus {corpus} --out {out} --min-count +1_0",
    "annotate --snapshot {snap} --out {out} --readings {readings} --bins +2",
])
def test_a_non_decimal_integer_flag_is_a_usage_error(pipeline_files, capsys, argv):
    capsys.readouterr()
    rc = main([token.format(**pipeline_files) for token in argv.split()])
    assert rc == 1
    assert "invalid decimal value" in capsys.readouterr().err
    assert not os.path.exists(pipeline_files["out"])


@pytest.mark.parametrize("argv", [
    "build-graph --strokes {strokes} --out {out} --tolerance",
    "annotate --snapshot {snap} --out {out} --synsets {synsets} --coefficients 1 1",
    "evaluate --vectors {vectors} --out {out} --C",
])
@pytest.mark.parametrize("token", ["1_0", "１", " 1", "+1"])
def test_a_malformed_real_flag_is_a_usage_error(pipeline_files, capsys, argv,
                                                 token):
    # float() reads each of these tokens
    capsys.readouterr()
    rc = main([t.format(**pipeline_files) for t in argv.split()] + [token])
    assert rc == 1
    assert "invalid real value" in capsys.readouterr().err
    assert not os.path.exists(pipeline_files["out"])


@pytest.mark.parametrize("command", ["chains --kind semantic", "query-unknown"])
@pytest.mark.parametrize("token", ["+1", "１", "1_0"])
def test_a_non_decimal_class_id_is_an_input_error(pipeline_files, capsys,
                                                  command, token):
    capsys.readouterr()
    rc = main(command.split() + ["--snapshot", pipeline_files["snap"],
                                 "--class", token])
    assert rc == 2
    assert f"bad class id {token!r}" in capsys.readouterr().err


def _with_member_1(pipeline_files):
    """The annotated snapshot with class 2's member U+4E02 swapped for
    U+0001, so that "1" and "U+1" name different classes."""
    with open(pipeline_files["snap"], encoding="utf-8") as fh:
        text = fh.read()
    assert "\n2\t4E02\t4E02\t" in text
    return write(pipeline_files["dir"] / "member1.snap",
                 text.replace("\n2\t4E02\t4E02\t", "\n2\t1\t1\t"))


@pytest.mark.parametrize("command", ["chains --kind semantic", "query-unknown"])
@pytest.mark.parametrize("token, rc, message", [
    ("U+2", 3, "U+0002 is in no class"),
    ("u+4E03", 3, "U+4E03 is in no class"),
    ("U+", 2, "bad hex codepoint ''"),
    ("U+-1", 2, "codepoint '-1' out of range"),
    ("U+110000", 2, "codepoint '110000' out of range"),
    ("9", 3, "no class with id 9"),
    ("-1", 2, "class id '-1' is not an integer >= 0"),
    ("4E03", 2, "bad class id '4E03'"),
    ("110000", 3, "no class with id 110000"),
])
def test_class_tokens_are_resolved_without_guessing(pipeline_files, capsys,
                                                    command, token, rc, message):
    snap = _with_member_1(pipeline_files)
    capsys.readouterr()
    assert main(command.split() + ["--snapshot", snap, "--class", token]) == rc
    err = capsys.readouterr().err
    assert message in err
    assert "U+110000" not in err  # past 10FFFF no file holds a codepoint


@pytest.mark.parametrize("token, cid", [("U+1", 2), ("u+0001", 2), ("U+4E00", 0),
                                        ("U+4E01", 1), ("1", 1), ("2", 2),
                                        ("0", 0)])
def test_a_class_token_with_one_reading_names_its_class(pipeline_files, capsys,
                                                        token, cid):
    snap = _with_member_1(pipeline_files)
    capsys.readouterr()
    assert main(["query-unknown", "--snapshot", snap, "--class", token]) == 0
    assert capsys.readouterr().out.startswith(f"{cid}\t")


@pytest.mark.parametrize("argv", [
    "chains --snapshot {graph} --kind semantic --all",
    "features --snapshot {graph} --corpus {corpus} --strategy semantic "
    "--out {out}",
    "query-unknown --snapshot {graph} --all",
])
def test_every_reader_of_a_missing_semanticity_says_the_same(pipeline_files,
                                                             capsys, argv):
    graph = str(pipeline_files["dir"] / "g.snap")
    assert main(["build-graph", "--strokes", pipeline_files["strokes"],
                 "--out", graph]) == 0
    capsys.readouterr()
    rc = main(argv.format(**dict(pipeline_files, graph=graph)).split())
    assert rc == 3
    assert capsys.readouterr().err == (
        "sinograph: edge 0 -> 1 has no semanticity; compute it with the "
        "annotate subcommand\n")


@pytest.mark.parametrize("command", ["chains --kind semantic", "query-unknown"])
@pytest.mark.parametrize("selector, message", [
    ("--all --class 0", "argument --class: not allowed with argument --all"),
    ("--class 0 --all", "argument --all: not allowed with argument --class"),
    ("", "one of the arguments --class --all is required"),
])
def test_class_and_all_are_one_required_choice(pipeline_files, capsys, command,
                                                selector, message):
    capsys.readouterr()
    rc = main(command.split() + ["--snapshot", pipeline_files["snap"],
                                 *selector.split()])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (f"sinograph {command.split()[0]}: "
                                    f"error: {message}")


@pytest.mark.parametrize("command", ["chains --kind semantic", "query-unknown"])
def test_a_class_named_twice_is_answered_once(pipeline_files, capsys, command):
    argv = command.split() + ["--snapshot", pipeline_files["snap"]]
    capsys.readouterr()
    assert main(argv + ["--class", "2", "--class", "0"]) == 0
    once = capsys.readouterr().out
    assert list(dict.fromkeys(line.split("\t")[0]
                              for line in once.splitlines())) == ["2", "0"]
    # class 2 by its id twice and by its member U+4E02
    assert main(argv + ["--class", "2", "--class", "0", "--class", "U+4E02",
                        "--class", "2"]) == 0
    assert capsys.readouterr().out == once


@pytest.mark.parametrize("argv, parse", [
    ("build-graph --strokes {strokes} --variants {variants} --ufl {ufl}",
     formats.parse_snapshot),
    ("annotate --snapshot {snap} --readings {readings} --synsets {synsets} "
     "--phi-histogram {hist}", formats.parse_snapshot),
    ("features --snapshot {snap} --corpus {corpus} --strategy combined "
     "--vocab-out {hist}", formats.parse_vectors),
])
def test_an_artefact_on_standard_output_is_its_file(pipeline_files, capsysbinary,
                                                    argv, parse):
    argv = argv.format(**pipeline_files).split()
    capsysbinary.readouterr()
    assert main(argv + ["--out", pipeline_files["out"]]) == 0
    summary, notes = capsysbinary.readouterr()
    assert summary
    with open(pipeline_files["out"], "rb") as fh:
        artefact = fh.read()
    assert main(argv + ["--out", "-"]) == 0
    # the artefact alone on standard output, the summary after the notes
    assert capsysbinary.readouterr() == (artefact, notes + summary)
    parse(artefact.decode("utf-8"))


@pytest.mark.parametrize("argv, flags", [
    ("annotate --snapshot {missing} --readings {readings} --out - "
     "--phi-histogram -", "--out and --phi-histogram"),
    ("features --snapshot {missing} --corpus {corpus} --out - --vocab-out -",
     "--out and --vocab-out"),
    ("freqdist --lists {missing} {ufl} --ufl-out -", "--out and --ufl-out"),
    ("freqdist --lists {missing} {ufl} --ufl-out - --out -",
     "--out and --ufl-out"),
])
def test_two_artefacts_on_standard_output_are_refused(pipeline_files, capsys,
                                                       argv, flags):
    """Refused before any file is read: the snapshot or list is missing."""
    missing = str(pipeline_files["dir"] / "missing")
    capsys.readouterr()
    rc = main(argv.format(missing=missing, **pipeline_files).split())
    assert rc == 2
    assert capsys.readouterr() == ("", f"sinograph: input error: {flags} both "
                                       f"write to standard output\n")
