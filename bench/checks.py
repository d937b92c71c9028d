"""Correctness checks on the program's outputs.

Each check tests a property of the method, or compares with a
computation made here apart from the program: the files are read with
the small readers below, not with ``sinograph.formats``, and no check
compares against a stored copy of an earlier output.  A failed check
raises ``CheckError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random

LANGS = ("cmn", "ja_on", "ja_kun")
CHANCE_FLOOR = 0.6  # five balanced categories: chance is 0.2


class CheckError(AssertionError):
    """An output of the program violates a property it must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- readers -------------------------------------------------------------

def _float(tok: str) -> float | None:
    return None if tok == "-" else float(tok)


@dataclass
class Snapshot:
    """A graph snapshot as its documented columns give it."""

    members: dict[int, set[int]] = field(default_factory=dict)  # class -> cps
    synsets: dict[int, set[str]] = field(default_factory=dict)
    edges: dict[tuple[int, int], dict] = field(default_factory=dict)

    def class_of(self) -> dict[int, int]:
        return {cp: cid for cid, cps in self.members.items() for cp in cps}

    def preds(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {cid: [] for cid in self.members}
        for a, b in self.edges:
            out[b].append(a)
        return out

    def succs(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {cid: [] for cid in self.members}
        for a, b in self.edges:
            out[a].append(b)
        return out


def read_snapshot(path: str) -> Snapshot:
    snap = Snapshot()
    section = None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            if line in ("META", "NODES", "EDGES"):
                section = line
                continue
            cells = line.split("\t")
            if section == "META":
                continue
            if section == "NODES":
                cid = int(cells[0])
                snap.members[cid] = {int(t, 16) for t in cells[1].split()}
                if cells[3] != "-":
                    snap.synsets[cid] = set(cells[3].split("|"))
            else:
                a, b = int(cells[0]), int(cells[1])
                edge = {"f1": int(cells[8]), "f2": int(cells[9]),
                        "r": float(cells[10]), "s_raw": _float(cells[11]),
                        "s": _float(cells[12])}
                for i, lang in enumerate(LANGS):
                    edge["d_" + lang] = _float(cells[2 + 2 * i])
                    edge["phi_" + lang] = _float(cells[3 + 2 * i])
                snap.edges[a, b] = edge
    return snap


def read_tsv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split("\t") for line in fh.read().splitlines()
                if line and not line.startswith("#")]


def read_vectors(path: str) -> tuple[list[str], list[dict[int, float]]]:
    labels, vectors = [], []
    for label, *cells in read_tsv(path):
        labels.append(label)
        vectors.append({int(c.split(":")[0]): float(c.split(":")[1])
                        for c in (cells[0].split() if cells else [])})
    return labels, vectors


def read_report(path: str) -> dict[str, str]:
    return dict(read_tsv(path))


# -- graph properties ----------------------------------------------------

def topological_order(nodes, succs: dict[int, list[int]]) -> list[int]:
    indeg = {n: 0 for n in nodes}
    for n in nodes:
        for m in succs[n]:
            indeg[m] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    _require(len(order) == len(indeg),
             f"class graph has a cycle through {len(indeg) - len(order)} nodes")
    return order


def descendants(snap: Snapshot) -> dict[int, int]:
    """Class -> bitset (bit i = class i) of every class reachable from it."""
    succs = snap.succs()
    reach: dict[int, int] = {}
    for n in reversed(topological_order(snap.members, succs)):
        bits = 0
        for m in succs[n]:
            bits |= (1 << m) | reach[m]
        reach[n] = bits
    return reach


def check_reduced(snap: Snapshot, reach: dict[int, int]) -> None:
    """No kept edge a -> c has a longer path a -> b -> ... -> c."""
    succs = snap.succs()
    for a, c in snap.edges:
        for b in succs[a]:
            _require(b == c or not reach[b] >> c & 1,
                     f"edge {a} -> {c} is implied by the path through {b}")


def check_construction(snap: Snapshot, parts: dict[int, tuple[int, ...]],
                       reach: dict[int, int]) -> None:
    """Every part drawn into a character is reachable from it."""
    class_of = snap.class_of()
    _require(set(class_of) == set(parts),
             f"{len(set(parts) ^ set(class_of))} characters lack a class or "
             f"were not generated")
    for whole, drawn in parts.items():
        for part in drawn:
            cp, cw = class_of[part], class_of[whole]
            _require(cp == cw or reach[cp] >> cw & 1,
                     f"U+{part:04X} is drawn into U+{whole:04X} but class "
                     f"{cw} is not reachable from class {cp}")


def check_mined(snap: Snapshot, parts: dict[int, tuple[int, ...]]) -> None:
    reach = descendants(snap)
    check_reduced(snap, reach)
    check_construction(snap, parts, reach)


# -- annotation ------------------------------------------------------------

def check_weights(snap: Snapshot) -> None:
    """phi and S lie in [0, 1]; the largest finite distance has phi 0 and
    the largest raw score S 1, in every language."""
    _require(bool(snap.edges), "annotated graph has no edges")
    for key, e in snap.edges.items():
        for name in ["s"] + ["phi_" + lang for lang in LANGS]:
            v = e[name]
            _require(v is None or 0.0 <= v <= 1.0, f"edge {key}: {name} = {v}")
        _require(e["s"] is not None, f"edge {key} has no semanticity")
    for lang in LANGS:
        dist = {k: e["d_" + lang] for k, e in snap.edges.items()
                if e["d_" + lang] is not None}
        _require(bool(dist), f"no edge has a {lang} distance")
        d_max = max(dist.values())
        for key, d in dist.items():
            phi = snap.edges[key]["phi_" + lang]
            want = 1.0 if d_max == 0 else 1 - d / d_max
            _require(phi is not None and math.isclose(phi, want, abs_tol=1e-12),
                     f"edge {key}: {lang} phi {phi} for d {d} of max {d_max}")
            _require(d != d_max or d_max == 0 or phi == 0.0,
                     f"edge {key} has the largest {lang} distance but phi {phi}")
    raw_max = max(e["s_raw"] for e in snap.edges.values())
    for key, e in snap.edges.items():
        raw = 0.5 * math.log1p(e["f1"]) + 0.25 * math.log1p(e["f2"]) + 0.25 * e["r"]
        _require(math.isclose(e["s_raw"], raw, rel_tol=1e-12, abs_tol=1e-12),
                 f"edge {key}: raw semanticity {e['s_raw']} != {raw}")
        want = e["s_raw"] / raw_max if raw_max > 0 else 0.0
        _require(math.isclose(e["s"], want, abs_tol=1e-12),
                 f"edge {key}: S {e['s']} != {want}")
        _require(e["s_raw"] != raw_max or raw_max == 0 or e["s"] == 1.0,
                 f"edge {key} has the largest raw score but S {e['s']}")


def _tuples(source_sid, target_sid, lemmas, sub_chars, sup_chars):
    return {(w1, w2, s, c)
            for w1 in lemmas[source_sid] for s in sub_chars if s in w1
            for w2 in lemmas[target_sid] for c in sup_chars if c in w2}


def brute_force_f(snap: Snapshot, key: tuple[int, int],
                  lemmas: dict[str, set[str]],
                  relations: list[tuple[str, str, str]]) -> tuple[int, int]:
    """(f1, f2) of an edge by enumerating the distinct tuples they count."""
    sub_chars = {chr(cp) for cp in snap.members[key[0]]}
    sup_chars = {chr(cp) for cp in snap.members[key[1]]}
    f1 = set()
    for rel in relations:
        f1 |= {(rel,) + t for t in
               _tuples(rel[0], rel[2], lemmas, sub_chars, sup_chars)}
    by_source: dict[str, list[tuple[str, str, str]]] = {}
    for rel in relations:
        by_source.setdefault(rel[0], []).append(rel)
    f2 = set()
    for first in relations:
        for second in by_source.get(first[2], ()):
            f2 |= {(first, second) + t for t in
                   _tuples(first[0], second[2], lemmas, sub_chars, sup_chars)}
    return len(f1), len(f2)


def check_f_counts(snap: Snapshot, synsets_path: str, relations_path: str,
                   seed: int, sample: int = 40) -> None:
    """f1 and f2 equal a brute-force tuple count on a seeded edge sample,
    half of it edges whose subcharacter occurs in a relation source."""
    lemmas = {sid: set(words.split("|")) for sid, words in read_tsv(synsets_path)}
    relations = list(dict.fromkeys(tuple(r) for r in read_tsv(relations_path)))
    sources = {ch for rel in relations for w in lemmas[rel[0]] for ch in w}
    keys = sorted(snap.edges)
    linked = [k for k in keys
              if any(chr(cp) in sources for cp in snap.members[k[0]])]
    rng = Random(seed)
    picked = (rng.sample(linked, min(sample, len(linked)))
              + rng.sample(keys, min(sample, len(keys))))
    for key in picked:
        want = brute_force_f(snap, key, lemmas, relations)
        got = (snap.edges[key]["f1"], snap.edges[key]["f2"])
        _require(got == want, f"edge {key}: (f1, f2) = {got}, brute force {want}")


def check_chains(snap: Snapshot, path: str, kind: str,
                 language: str = "ja_on") -> None:
    """Every class has a chain, and each step takes the predecessor of
    largest S (most semantic) or smallest phi (least phonetic), ties to
    the lowest class id, until no predecessor qualifies."""
    preds = snap.preds()
    chains = {int(cid): [int(c) for c in chain.split()]
              for cid, chain in read_tsv(path)}
    _require(set(chains) == set(snap.members),
             f"{kind} chains cover {len(chains)} of {len(snap.members)} classes")
    for cid, chain in chains.items():
        _require(chain[0] == cid, f"{kind} chain of {cid} starts at {chain[0]}")
        for i, cur in enumerate(chain):
            if kind == "semantic":
                cands = [(-snap.edges[p, cur]["s"], p) for p in preds[cur]]
            else:
                cands = [(snap.edges[p, cur]["phi_" + language], p)
                         for p in preds[cur]
                         if snap.edges[p, cur]["phi_" + language] is not None]
            want = min(cands)[1] if cands else None
            got = chain[i + 1] if i + 1 < len(chain) else None
            _require(got == want, f"{kind} chain of {cid} steps from {cur} "
                                  f"to {got}, expected {want}")


def check_queries(snap: Snapshot, path: str) -> None:
    """Each class has an answer; a distribution sums to 1 over annotated
    synsets, and an annotated class answers its own synsets uniformly."""
    annotated = set().union(*snap.synsets.values()) if snap.synsets else set()
    answers: dict[int, dict[str, float]] = {}
    for cid, sid, w in read_tsv(path):
        dist = answers.setdefault(int(cid), {})
        if sid != "-":
            dist[sid] = float(w)
    _require(set(answers) == set(snap.members),
             f"queries answered {len(answers)} of {len(snap.members)} classes")
    _require(any(answers.values()), "no query has an answer")
    for cid, dist in answers.items():
        if not dist:
            continue
        _require(set(dist) <= annotated,
                 f"class {cid} answers synsets no class is annotated with")
        _require(abs(sum(dist.values()) - 1.0) <= 1e-6 * len(dist) + 1e-9,
                 f"class {cid}: distribution sums to {sum(dist.values())}")
        own = snap.synsets.get(cid)
        if own:
            _require(set(dist) == own and
                     all(abs(w - 1 / len(own)) <= 1e-6 for w in dist.values()),
                     f"annotated class {cid} does not answer its own synsets")


# -- features and classification ------------------------------------------

def check_unit_norm(path: str) -> tuple[list[str], list[dict[int, float]]]:
    labels, vectors = read_vectors(path)
    for i, vec in enumerate(vectors):
        norm = math.sqrt(sum(w * w for w in vec.values()))
        _require(not vec or abs(norm - 1.0) <= 1e-9,
                 f"{path}: vector {i} has L2 norm {norm}")
    return labels, vectors


def fold_sizes(labels: list[str], k: int) -> list[int]:
    """Sizes of stratified folds: each category is dealt round-robin."""
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    return [sum(n // k + (j < n % k) for n in counts.values()) for j in range(k)]


def check_report(path: str, labels: list[str], k: int) -> float:
    """Fold accuracies weighted by fold size give the mean accuracy, and
    the mean clears a floor well above chance.  Returns the mean."""
    report = read_report(path)
    _require(int(report["examples"]) == len(labels) and int(report["k"]) == k,
             f"{path}: report covers {report['examples']} examples, k {report['k']}")
    sizes = fold_sizes(labels, k)
    accs = [float(report[f"fold_{j}_accuracy"]) for j in range(k)]
    correct = [a * n for a, n in zip(accs, sizes)]
    for j, c in enumerate(correct):
        _require(abs(c - round(c)) <= 1e-6 * sizes[j] + 1e-9,
                 f"{path}: fold {j} accuracy {accs[j]} is not a count over "
                 f"{sizes[j]} examples")
    mean = float(report["mean_accuracy"])
    want = sum(round(c) for c in correct) / len(labels)
    _require(abs(mean - want) <= 1e-6,
             f"{path}: mean accuracy {mean}, folds give {want}")
    _require(mean >= CHANCE_FLOOR,
             f"{path}: mean accuracy {mean} is below {CHANCE_FLOOR}")
    return mean
