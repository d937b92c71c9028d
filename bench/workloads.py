"""The three benchmark workloads, each driven through ``sinograph.cli.main``.

A workload's set-up generates the inputs (``gendata``) and then
``prepare`` runs the CLI steps that make what the timed operations read.
A round is a fixed list of CLI invocations, the operations that are timed.  ``check`` verifies the
outputs of one round with the properties in ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from sinograph import cli

import checks
import gendata


class StepFailed(RuntimeError):
    """A set-up step exited non-zero, so no round can run."""


def run_cli(argv: list[str]) -> int:
    """One in-process CLI invocation with its output captured."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    if rc != 0:
        print(f"sinograph {argv[0]} exited {rc}: {err.getvalue().strip()}",
              file=sys.stderr)
    return rc


def _run_steps(steps: list[list[str]]) -> None:
    for argv in steps:
        if run_cli(argv) != 0:
            raise StepFailed(f"set-up step {argv[0]} failed")


def _build_graph(p: dict[str, str], out: str) -> list[str]:
    return ["build-graph", "--strokes", p["strokes"], "--variants", p["variants"],
            "--ufl", p["freq"], "--out", out]


def _annotate(p: dict[str, str], graph: str, out: str) -> list[str]:
    return ["annotate", "--snapshot", graph, "--out", out,
            "--readings", p["readings"], "--radicals", p["radicals"],
            "--synsets", p["synsets"], "--relations", p["relations"],
            "--definitions", p["definitions"]]


def _features(p: dict[str, str], snap: str, strategy: str, out: str) -> list[str]:
    return ["features", "--snapshot", snap, "--corpus", p["corpus"],
            "--strategy", strategy, "--out", out]


class Mine:
    """build-graph on a ~2.3k-character inventory."""

    name = "mine"

    def prepare(self, workdir: str, data: gendata.Dataset, seed: int) -> dict:
        return {"data": data, "seed": seed}

    def round(self, prep: dict, out: str) -> list[list[str]]:
        return [_build_graph(prep["data"].paths, os.path.join(out, "graph.snap"))]

    def check(self, prep: dict, out: str) -> dict[str, float]:
        checks.check_mined(checks.read_snapshot(os.path.join(out, "graph.snap")),
                           prep["data"].parts)
        return {}


class Annotate:
    """Weights, chains, features and queries on a graph mined in set-up."""

    name = "annotate"

    def prepare(self, workdir: str, data: gendata.Dataset, seed: int) -> dict:
        graph = os.path.join(workdir, "graph.snap")
        _run_steps([_build_graph(data.paths, graph)])
        return {"data": data, "seed": seed, "graph": graph}

    def round(self, prep: dict, out: str) -> list[list[str]]:
        p = prep["data"].paths
        snap = os.path.join(out, "annotated.snap")
        return [
            _annotate(p, prep["graph"], snap),
            ["chains", "--snapshot", snap, "--kind", "semantic", "--all",
             "--out", os.path.join(out, "semantic.chains")],
            ["chains", "--snapshot", snap, "--kind", "phonetic", "--all",
             "--out", os.path.join(out, "phonetic.chains")],
            _features(p, snap, "combined", os.path.join(out, "combined.vec")),
            ["query-unknown", "--snapshot", snap, "--all",
             "--out", os.path.join(out, "queries.tsv")],
        ]

    def check(self, prep: dict, out: str) -> dict[str, float]:
        p = prep["data"].paths
        checks.check_mined(checks.read_snapshot(prep["graph"]), prep["data"].parts)
        snap = checks.read_snapshot(os.path.join(out, "annotated.snap"))
        checks.check_weights(snap)
        checks.check_f_counts(snap, p["synsets"], p["relations"], prep["seed"])
        checks.check_chains(snap, os.path.join(out, "semantic.chains"), "semantic")
        checks.check_chains(snap, os.path.join(out, "phonetic.chains"), "phonetic")
        checks.check_queries(snap, os.path.join(out, "queries.tsv"))
        checks.check_unit_norm(os.path.join(out, "combined.vec"))
        return {}


class Classify:
    """10-fold cross-validation of baseline and combined vectors."""

    name = "classify"
    strategies = {"baseline": "accuracy_baseline", "combined": "accuracy_augmented"}
    folds = 10

    def prepare(self, workdir: str, data: gendata.Dataset, seed: int) -> dict:
        graph = os.path.join(workdir, "graph.snap")
        snap = os.path.join(workdir, "annotated.snap")
        vectors = {s: os.path.join(workdir, s + ".vec") for s in self.strategies}
        _run_steps([_build_graph(data.paths, graph),
                    _annotate(data.paths, graph, snap)]
                   + [_features(data.paths, snap, s, vectors[s])
                      for s in self.strategies])
        return {"data": data, "seed": seed, "vectors": vectors}

    def round(self, prep: dict, out: str) -> list[list[str]]:
        return [["evaluate", "--vectors", prep["vectors"][s], "--k", str(self.folds),
                 "--seed", str(prep["seed"]), "--out", os.path.join(out, s + ".report")]
                for s in self.strategies]

    def check(self, prep: dict, out: str) -> dict[str, float]:
        accuracy = {}
        for strategy, metric in self.strategies.items():
            labels, _ = checks.check_unit_norm(prep["vectors"][strategy])
            accuracy[metric] = checks.check_report(
                os.path.join(out, strategy + ".report"), labels, self.folds)
        return accuracy


WORKLOADS = {w.name: w for w in (Classify(), Mine(), Annotate())}
