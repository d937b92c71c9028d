"""Tests of the benchmark itself: the generator is deterministic, every
correctness check rejects a corrupted output, and the tracer restores
what it patches."""

import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import gendata  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sinograph import cli, strokesig  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    gendata.make_inputs(str(tmp_path / "a"), "classify", 3)
    gendata.make_inputs(str(tmp_path / "b"), "classify", 3)
    gendata.make_inputs(str(tmp_path / "c"), "classify", 4)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a["strokes.tsv"] != c["strokes.tsv"]
    assert a["corpus.tsv"] != c["corpus.tsv"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The classify-sized inputs run through every CLI step once."""
    work = str(tmp_path_factory.mktemp("pipeline"))
    data = gendata.make_inputs(os.path.join(work, "inputs"), "classify", 1)
    p = data.paths
    out = {name: os.path.join(work, name) for name in (
        "graph.snap", "annotated.snap", "semantic.chains", "phonetic.chains",
        "combined.vec", "queries.tsv", "small.vec", "small.report")}
    steps = [
        workloads._build_graph(p, out["graph.snap"]),
        workloads._annotate(p, out["graph.snap"], out["annotated.snap"]),
        ["chains", "--snapshot", out["annotated.snap"], "--kind", "semantic",
         "--all", "--out", out["semantic.chains"]],
        ["chains", "--snapshot", out["annotated.snap"], "--kind", "phonetic",
         "--all", "--out", out["phonetic.chains"]],
        workloads._features(p, out["annotated.snap"], "combined", out["combined.vec"]),
        ["query-unknown", "--snapshot", out["annotated.snap"], "--all",
         "--out", out["queries.tsv"]],
    ]
    for argv in steps:
        assert workloads.run_cli(argv) == 0, argv
    # a small corpus keeps cross-validation quick
    with open(out["combined.vec"], encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    kept, seen = [], {}
    for row in rows:
        label = row.split("\t")[0]
        seen[label] = seen.get(label, 0) + 1
        if seen[label] <= 20:
            kept.append(row)
    with open(out["small.vec"], "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + kept) + "\n")
    assert workloads.run_cli(["evaluate", "--vectors", out["small.vec"], "--k", "5",
                              "--out", out["small.report"]]) == 0
    return data, out


def _rewrite(path, new_path, edit):
    """Copy a text file, passing its lines through ``edit``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(new_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return new_path


def _edit_edges(lines, edit_cells):
    """Apply ``edit_cells(cells) -> cells or None`` to every EDGES line;
    None drops the line."""
    out, in_edges = [], False
    for line in lines:
        if line == "EDGES":
            in_edges = True
        elif in_edges:
            cells = edit_cells(line.split("\t"))
            if cells is None:
                continue
            line = "\t".join(cells)
        out.append(line)
    return out


def test_outputs_pass_every_check(pipeline):
    data, out = pipeline
    checks.check_mined(checks.read_snapshot(out["graph.snap"]), data.parts)
    snap = checks.read_snapshot(out["annotated.snap"])
    checks.check_weights(snap)
    checks.check_f_counts(snap, data.paths["synsets"], data.paths["relations"], 1)
    checks.check_chains(snap, out["semantic.chains"], "semantic")
    checks.check_chains(snap, out["phonetic.chains"], "phonetic")
    checks.check_queries(snap, out["queries.tsv"])
    labels, _ = checks.check_unit_norm(out["small.vec"])
    checks.check_report(out["small.report"], labels, 5)


def test_mine_check_rejects_dropped_edge(pipeline, tmp_path):
    data, out = pipeline
    snap = checks.read_snapshot(out["graph.snap"])
    class_of = snap.class_of()
    whole, part = next((w, p) for w, drawn in data.parts.items() for p in drawn
                       if (class_of[p], class_of[w]) in snap.edges)
    drop = (str(class_of[part]), str(class_of[whole]))
    bad = _rewrite(out["graph.snap"], tmp_path / "g.snap", lambda lines: _edit_edges(
        lines, lambda cells: None if tuple(cells[:2]) == drop else cells))
    with pytest.raises(checks.CheckError, match="not reachable"):
        checks.check_mined(checks.read_snapshot(bad), data.parts)


def test_mine_check_rejects_shortcut_and_cycle(pipeline, tmp_path):
    data, out = pipeline
    snap = checks.read_snapshot(out["graph.snap"])
    succs = snap.succs()
    a, b = next(e for e in snap.edges if succs[e[1]])
    c = succs[b][0]
    with open(out["graph.snap"], encoding="utf-8") as fh:
        template = fh.read().split("EDGES\n")[1].splitlines()[0].split("\t")
    for extra, message in (((a, c), "implied"), ((b, a), "cycle")):
        line = "\t".join([str(extra[0]), str(extra[1])] + template[2:])
        bad = _rewrite(out["graph.snap"], tmp_path / "g.snap",
                       lambda lines: lines + [line])
        with pytest.raises(checks.CheckError, match=message):
            checks.check_mined(checks.read_snapshot(bad), data.parts)


@pytest.mark.parametrize("column, value, message", [
    (3, "1.5", "phi"),            # cmn phi out of range
    (12, "0.123456", "S 0.123456"),  # semanticity not s_raw / max
    (8, "999", "raw semanticity"),  # f1 that does not give s_raw
])
def test_weight_check_rejects_corruption(pipeline, tmp_path, column, value, message):
    _, out = pipeline
    done = []

    def corrupt(cells):
        if not done and cells[column] != "-":
            done.append(cells)
            cells = cells[:column] + [value] + cells[column + 1:]
        return cells
    bad = _rewrite(out["annotated.snap"], tmp_path / "a.snap",
                   lambda lines: _edit_edges(lines, corrupt))
    with pytest.raises(checks.CheckError, match=message):
        checks.check_weights(checks.read_snapshot(bad))


def test_f_count_check_rejects_wrong_counts(pipeline, tmp_path):
    data, out = pipeline
    bad = _rewrite(out["annotated.snap"], tmp_path / "a.snap", lambda lines: _edit_edges(
        lines, lambda cells: cells[:8] + [str(int(cells[8]) + 1)] + cells[9:]))
    with pytest.raises(checks.CheckError, match="brute force"):
        checks.check_f_counts(checks.read_snapshot(bad), data.paths["synsets"],
                              data.paths["relations"], 1)


@pytest.mark.parametrize("kind", ["semantic", "phonetic"])
def test_chain_check_rejects_wrong_step(pipeline, tmp_path, kind):
    _, out = pipeline
    snap = checks.read_snapshot(out["annotated.snap"])

    def corrupt(lines):
        for i, line in enumerate(lines):
            cid, chain = line.split("\t")
            if len(chain.split()) > 1:
                lines[i] = f"{cid}\t{cid}"  # stops where a predecessor exists
                return lines
        raise AssertionError("no chain with a step")
    bad = _rewrite(out[f"{kind}.chains"], tmp_path / "c.txt", corrupt)
    with pytest.raises(checks.CheckError, match="expected"):
        checks.check_chains(snap, bad, kind)


def test_query_check_rejects_unnormalized_distribution(pipeline, tmp_path):
    _, out = pipeline
    snap = checks.read_snapshot(out["annotated.snap"])

    def corrupt(lines):
        for i, line in enumerate(lines):
            cid, sid, w = line.split("\t")
            if sid != "-" and float(w) < 1:
                lines[i] = f"{cid}\t{sid}\t{float(w) * 2:.6f}"
                return lines
        raise AssertionError("no split distribution")
    bad = _rewrite(out["queries.tsv"], tmp_path / "q.tsv", corrupt)
    with pytest.raises(checks.CheckError, match="sums to|own synsets"):
        checks.check_queries(snap, bad)


def test_norm_check_rejects_scaled_vector(pipeline, tmp_path):
    _, out = pipeline

    def corrupt(lines):
        label, cells = lines[1].split("\t")
        cid, w = cells.split()[0].split(":")
        lines[1] = f"{label}\t{' '.join([f'{cid}:{float(w) * 2}'] + cells.split()[1:])}"
        return lines
    bad = _rewrite(out["small.vec"], tmp_path / "v.vec", corrupt)
    with pytest.raises(checks.CheckError, match="norm"):
        checks.check_unit_norm(bad)


def test_report_check_rejects_altered_fold_accuracy(pipeline, tmp_path):
    _, out = pipeline
    labels, _ = checks.read_vectors(out["small.vec"])

    def corrupt(lines):
        for i, line in enumerate(lines):
            key, value = line.split("\t")
            if key == "fold_0_accuracy":
                lines[i] = f"{key}\t{float(value) - 0.013:.6f}"
        return lines
    bad = _rewrite(out["small.report"], tmp_path / "r.txt", corrupt)
    with pytest.raises(checks.CheckError, match="fold 0|mean accuracy"):
        checks.check_report(bad, labels, 5)


def test_tracer_counts_and_restores(pipeline, tmp_path):
    data, _ = pipeline
    original = strokesig.detect_inclusions
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.detect_inclusions is not original
        rc = workloads.run_cli(workloads._build_graph(data.paths, str(tmp_path / "g.snap")))
    finally:
        tracer.uninstall()
    assert rc == 0
    assert cli.detect_inclusions is original is strokesig.detect_inclusions
    assert not hasattr(strokesig.signature_contains, "__wrapped__")
    layer = tracer.metrics()
    assert layer["strokesig.candidate_pairs"] > layer["strokesig.inclusions"] > 0
    assert layer["graphcore.edges_in"] > layer["graphcore.edges_kept"] > 0
    assert layer["strokesig.detect_s"] > 0
    assert set(layer) >= set(spans.TIME_METRICS) | set(spans.COUNT_METRICS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
