"""Deterministic synthetic dataset for demos and end-to-end tests.

Generates every input file the CLI consumes: stroke descriptions for
roughly 300 characters built by embedding smaller characters into larger
ones (so the inclusion structure is known by construction), plus
readings, variants, radicals, a toy synset database, definitions, a
frequency list and a 1,000-document labeled corpus.

Embeddings use uniform scaling and translation only, which the stroke
pair representation is invariant under, so every embedded character is
rediscovered by the signature miner.

Usage: ``python -m sinograph.synthdata OUTDIR [--seed N]``
"""

from __future__ import annotations

import argparse
import os
from collections import Counter
from random import Random

from .formats import write_lines
from .strokesig import Stroke, format_stroke_spec

ATOM_BASE = 0x4E00
TIER1_BASE = 0x4F00
TIER2_BASE = 0x5100
VARIANT_BASE = 0x9000

_ATOMS: list[list[tuple[str, list[tuple[float, float]]]]] = [
    [("H", [(1, 5), (9, 5)])],
    [("S", [(5, 9), (5, 1)])],
    [("D", [(4, 9), (4.5, 8)]), ("H", [(1.97, 7.6), (6.52, 7.6)])],
    [("H", [(1, 8), (9, 8)]), ("S", [(5, 8), (5, 1)])],
    [("P", [(8, 9), (2, 1)]), ("N", [(2, 9), (8, 1)])],
    [("H", [(1, 7), (9, 7)]), ("H", [(2, 3), (8, 3)])],
    [("S", [(3, 9), (3, 1)]), ("H", [(3, 5), (9, 5)])],
    [("D", [(5, 8), (6, 6.5)])],
    [("T", [(2, 2), (8, 3)]), ("H", [(1, 6), (9, 6)])],
    [("HZ", [(2, 8), (8, 8), (8, 2)])],
    [("SW", [(7, 9), (3, 2)])],
    [("H", [(2, 8), (8, 8)]), ("S", [(5, 8), (5, 2)]), ("H", [(1, 2), (9, 2)])],
    [("P", [(7, 9), (3, 3)]), ("D", [(6, 4), (7, 2.5)])],
    [("S", [(4, 9), (4, 2)]), ("T", [(4, 3), (9, 4)])],
    [("PD", [(6, 8), (3, 5), (4, 2)])],
]

_MANDARIN = ["ren2", "li4", "ma3", "tu2", "shan1", "hu3", "mei2", "yu4",
             "shi2", "kuang4", "bing1", "jing1", "xin1", "gan1", "ren4",
             "liu2", "yu2", "hua4", "feng1", "zhen3"]
_JA_ON = ["nin", "koku", "sai", "shin", "kan", "ryu", "sei", "tou", "kou",
          "mei", "gyo", "han"]
_JA_KUN = ["hi to", "ma ka se ru", "ta e ru", "ko ko ro", "ya ma", "ka wa",
           "mi zu", "ni na u", "o mo u", "ha na", "to ri", "ki"]


def _embed(strokes, scale: float, dx: float, dy: float):
    return [
        Stroke(s.calligraphic_type,
               tuple((x * scale + dx, y * scale + dy) for x, y in s.skeleton))
        for s in strokes
    ]


def _atom_strokes(i: int) -> list[Stroke]:
    return [Stroke(t, tuple(pts)) for t, pts in _ATOMS[i]]


def build_characters(rng: Random):
    """(codepoint -> strokes, codepoint -> contained atom ids,
    variant pairs)."""
    chars: dict[int, list[Stroke]] = {}
    atoms_of: dict[int, list[int]] = {}

    for i in range(len(_ATOMS)):
        chars[ATOM_BASE + i] = _atom_strokes(i)
        atoms_of[ATOM_BASE + i] = [i]

    tier1: list[int] = []
    pairs = [(a, b) for a in range(len(_ATOMS)) for b in range(len(_ATOMS))
             if a != b]
    rng.shuffle(pairs)
    for idx, (a, b) in enumerate(pairs[:80]):
        cp = TIER1_BASE + idx
        left = _embed(_atom_strokes(a), 0.45, 0.2, 2.75)
        right = _embed(_atom_strokes(b), 0.45, 5.3, 2.75)
        chars[cp] = left + right
        atoms_of[cp] = [a, b]
        tier1.append(cp)

    tier2: list[int] = []
    for idx in range(200):
        base = rng.choice(tier1)
        extra = rng.randrange(len(_ATOMS))
        cp = TIER2_BASE + idx
        top = _embed(chars[base], 0.48, 0.2, 5.0)
        bottom = _embed(_atom_strokes(extra), 0.48, 0.2, 0.1)
        chars[cp] = top + bottom
        atoms_of[cp] = atoms_of[base] + [extra]
        tier2.append(cp)

    variant_pairs = []
    for idx, orig in enumerate(sorted(rng.sample(tier1, 8))):
        var = VARIANT_BASE + idx
        chars[var] = _embed(chars[orig], 0.9, 0.5, 0.5)
        atoms_of[var] = atoms_of[orig]
        variant_pairs.append((orig, var))
    return chars, atoms_of, variant_pairs, tier1, tier2


def make_dataset(outdir: str, seed: int = 7) -> dict[str, str]:
    """Write all input files into ``outdir``; returns name -> path."""
    rng = Random(seed)
    os.makedirs(outdir, exist_ok=True)
    chars, atoms_of, variant_pairs, tier1, tier2 = build_characters(rng)

    # each file as its lines, built in the order the RNG is drawn
    files: dict[str, list[str]] = {}
    files["strokes"] = [f"{cp:X}\t{format_stroke_spec(chars[cp])}"
                        for cp in sorted(chars)]
    files["variants"] = [f"{a:X}\t{b:X}" for a, b in variant_pairs]

    # readings: composites inherit an on reading from a contained atom half
    # the time, correlating phonetics with structure
    atom_on = {i: rng.choice(_JA_ON) for i in range(len(_ATOMS))}
    readings = files["readings"] = []
    for cp in sorted(chars):
        if rng.random() < 0.85:
            readings.append(f"{cp:X}\tcmn\t{rng.choice(_MANDARIN)}")
        if rng.random() < 0.75:
            if atoms_of[cp] and rng.random() < 0.5:
                on = atom_on[rng.choice(atoms_of[cp])]
            else:
                on = rng.choice(_JA_ON)
            readings.append(f"{cp:X}\tja_on\t{on}")
        if rng.random() < 0.6:
            readings.append(f"{cp:X}\tja_kun\t{rng.choice(_JA_KUN)}")

    files["radicals"] = [
        f"{cp:X}\t" + str(atoms_of[cp][0] * 3 % 214 + 1 if rng.random() < 0.6
                          else rng.randrange(1, 215))
        for cp in sorted(chars)]

    # toy synsets: words over the generated characters; related synset
    # pairs share an inclusion (atom word on the source side, composite
    # word on the target side)
    all_cps = sorted(chars)
    synsets: list[tuple[str, list[str]]] = []
    relations: list[tuple[str, str, str]] = []
    rel_types = ["hyponymy", "meronymy", "antonymy"]
    for k in range(20):
        t2 = rng.choice(tier2)
        atom_id = ATOM_BASE + rng.choice(atoms_of[t2])
        w_sub = chr(atom_id) + chr(rng.choice(all_cps))
        w_sup = chr(t2) + chr(rng.choice(all_cps))
        sid_a, sid_b = f"syn{2 * k:03d}", f"syn{2 * k + 1:03d}"
        synsets.append((sid_a, [w_sub]))
        synsets.append((sid_b, [w_sup]))
        relations.append((sid_a, rng.choice(rel_types), sid_b))
    for k in range(40, 50):
        words = [
            "".join(chr(rng.choice(all_cps))
                    for _ in range(rng.randrange(1, 4)))
            for _ in range(rng.randrange(1, 3))
        ]
        synsets.append((f"syn{k:03d}", words))
    for _ in range(15):
        a, _, b = rng.choice(relations)
        c = f"syn{rng.randrange(40, 50):03d}"
        relations.append((b, rng.choice(rel_types), c))
    files["synsets"] = [f"{sid}\t{'|'.join(words)}" for sid, words in synsets]
    files["relations"] = ["\t".join(rel) for rel in relations]

    lemma_pool = [w for _, words in synsets for w in words]
    files["definitions"] = [f"{ATOM_BASE + i:X}\t{rng.choice(lemma_pool)}"
                            for i in range(len(_ATOMS)) if rng.random() < 0.7]

    # corpus: five categories, each preferring its own slice of tier-2
    # characters; remaining text drawn from a shared pool
    categories = ["sports", "finance", "news", "entertainment", "science"]
    shared = tier1 + [ATOM_BASE + i for i in range(len(_ATOMS))]
    cat_chars = {cat: tier2[i * 40:(i + 1) * 40]
                 for i, cat in enumerate(categories)}
    docs: list[tuple[str, str]] = []
    for cat in categories:
        for _ in range(200):
            length = rng.randrange(40, 81)
            text = "".join(
                chr(rng.choice(cat_chars[cat])) if rng.random() < 0.7
                else chr(rng.choice(shared))
                for _ in range(length))
            docs.append((cat, text))
    rng.shuffle(docs)
    files["corpus"] = [f"{cat}\t{text}" for cat, text in docs]

    counts = Counter(ch for _, text in docs for ch in text)
    files["freq"] = [f"{ord(ch):X}\t{counts[ch]}"
                     for ch in sorted(counts, key=ord)]

    paths = {name: os.path.join(outdir, name + ".tsv") for name in files}
    for name, path in paths.items():
        write_lines(path, files[name])
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="generate the bundled synthetic dataset")
    parser.add_argument("outdir")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    paths = make_dataset(args.outdir, seed=args.seed)
    for name in sorted(paths):
        print(paths[name])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
