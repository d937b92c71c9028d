"""Golden digest of every file of the seed-7 synthetic pipeline.

The files are the nine inputs ``make_dataset`` writes (``data/*.tsv``),
the CLI output files and ``stdout.txt``, the tab-separated summaries the
subcommands print.  A change that alters any byte of them fails here.
A change that alters behaviour on purpose regenerates the digest file in
the same change and says why:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/seed7.sha256
"""

import contextlib
import hashlib
import os
import tempfile

from sinograph.cli import main as cli_main
from sinograph.synthdata import make_dataset

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "seed7.sha256")
STRATEGIES = ("baseline", "semantic", "combined", "phonetic")
# the strategies with a phonetic part, run again on Mandarin readings
CMN_STRATEGIES = ("combined_cmn", "phonetic_cmn")


def _run(argv):
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"exit {rc}: sinograph {' '.join(argv)}")


def run_pipeline(base: str) -> dict[str, str]:
    """Run every subcommand on the seed-7 data; file name -> path."""
    data = os.path.join(base, "data")
    inputs = make_dataset(data, seed=7)
    out = {name: os.path.join(base, name) for name in (
        "graph.snap", "annotated.snap", "phi_hist.csv", "chains_semantic.txt",
        "chains_phonetic.txt", "chains_phonetic_cmn.txt", "queries.txt",
        "report_baseline.txt", "report_combined.txt", "stdout.txt")}
    for strategy in STRATEGIES + CMN_STRATEGIES:
        for kind in ("vectors", "vocab"):
            name = f"{kind}_{strategy}.txt"
            out[name] = os.path.join(base, name)
    out.update({f"data/{name}.tsv": path for name, path in inputs.items()})
    with open(out["stdout.txt"], "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh):
        _run_subcommands(data, out)
    return out


def _run_subcommands(data: str, out: dict[str, str]) -> None:
    _run(["build-graph", "--strokes", f"{data}/strokes.tsv",
          "--variants", f"{data}/variants.tsv", "--ufl", f"{data}/freq.tsv",
          "--out", out["graph.snap"]])
    ann = out["annotated.snap"]
    _run(["annotate", "--snapshot", out["graph.snap"], "--out", ann,
          "--readings", f"{data}/readings.tsv",
          "--radicals", f"{data}/radicals.tsv",
          "--synsets", f"{data}/synsets.tsv",
          "--relations", f"{data}/relations.tsv",
          "--definitions", f"{data}/definitions.tsv",
          "--phi-histogram", out["phi_hist.csv"]])
    _run(["chains", "--snapshot", ann, "--kind", "semantic", "--all",
          "--out", out["chains_semantic.txt"]])
    _run(["chains", "--snapshot", ann, "--kind", "phonetic",
          "--language", "ja_on", "--all", "--out", out["chains_phonetic.txt"]])
    _run(["chains", "--snapshot", ann, "--kind", "phonetic",
          "--language", "cmn", "--all", "--out", out["chains_phonetic_cmn.txt"]])
    for name in STRATEGIES + CMN_STRATEGIES:
        strategy, _, language = name.partition("_")
        _run(["features", "--snapshot", ann, "--corpus", f"{data}/corpus.tsv",
              "--strategy", strategy, "--language", language or "ja_on",
              "--out", out[f"vectors_{name}.txt"],
              "--vocab-out", out[f"vocab_{name}.txt"]])
    _run(["query-unknown", "--snapshot", ann, "--all", "--max-depth", "4",
          "--out", out["queries.txt"]])
    # baseline: 11 of its 50 fold models stop at the epoch cap
    for strategy in ("baseline", "combined"):
        _run(["evaluate", "--vectors", out[f"vectors_{strategy}.txt"],
              "--k", "10", "--C", "1", "--seed", "42",
              "--out", out[f"report_{strategy}.txt"]])


def digests(paths: dict[str, str]) -> dict[str, str]:
    result = {}
    for name, path in paths.items():
        with open(path, "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def load_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return {name: digest for digest, name in
                (line.split() for line in fh if line.strip())}


def test_seed7_artefacts_match_golden_digest(tmp_path):
    got = digests(run_pipeline(str(tmp_path)))
    want = load_golden()
    assert sorted(got) == sorted(want)
    changed = [name for name in sorted(want) if got[name] != want[name]]
    assert not changed, f"artefacts differ from {GOLDEN}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = run_pipeline(tmp)
        lines = [f"{d}  {name}" for name, d in sorted(digests(paths).items())]
    print("\n".join(lines))
