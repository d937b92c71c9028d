"""Seeded input generator for the benchmark workloads.

Writes every file the CLI consumes (strokes, variants, readings,
radicals, synsets, relations, definitions, frequencies, corpus) from a
seed and a size table, and returns the inclusions that exist by
construction so the checks can verify mining without trusting the miner.

Only sinograph's public API is used: ``Stroke`` and
``format_stroke_spec`` to draw characters, ``formats.parse_strokes`` to
read the bundled atoms.  Refactors of ``sinograph.synthdata`` cannot
change these inputs.

Characters are built in tiers.  Atoms are the 15 bundled shapes plus
random ones drawn from the 36 stroke types; a tier-1 character puts two
atoms side by side, a tier-2 character puts a tier-1 character above an
atom, and a variant is a shrunken copy of a tier-1 character.  Embedding
uses uniform scaling and translation only, which the stroke-pair
signature is invariant under, so every part is a subcharacter of the
whole it was drawn into.

Usage: ``python3 bench/gendata.py OUTDIR --workload mine --seed 1``
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from random import Random

from sinograph import formats
from sinograph.strokesig import STROKE_TYPES, Stroke, format_stroke_spec

ATOM_BASE = 0x4E00
VARIANT_BASE = 0xF900

# The 15 atoms of the bundled demo dataset, as strokes.tsv lines.
BUNDLED_ATOMS = """\
0\tH:(1,5)-(9,5)
1\tS:(5,9)-(5,1)
2\tD:(4,9)-(4.5,8);H:(1.97,7.6)-(6.52,7.6)
3\tH:(1,8)-(9,8);S:(5,8)-(5,1)
4\tP:(8,9)-(2,1);N:(2,9)-(8,1)
5\tH:(1,7)-(9,7);H:(2,3)-(8,3)
6\tS:(3,9)-(3,1);H:(3,5)-(9,5)
7\tD:(5,8)-(6,6.5)
8\tT:(2,2)-(8,3);H:(1,6)-(9,6)
9\tHZ:(2,8)-(8,8)-(8,2)
A\tSW:(7,9)-(3,2)
B\tH:(2,8)-(8,8);S:(5,8)-(5,2);H:(1,2)-(9,2)
C\tP:(7,9)-(3,3);D:(6,4)-(7,2.5)
D\tS:(4,9)-(4,2);T:(4,3)-(9,4)
E\tPD:(6,8)-(3,5)-(4,2)
"""

LANGUAGES = ("cmn", "ja_on", "ja_kun")
RELATION_TYPES = ("hyponymy", "meronymy", "antonymy")
CATEGORIES = ("sports", "finance", "news", "entertainment", "science")
ONSETS = ("", "b", "p", "m", "f", "d", "t", "n", "l", "r", "z", "s", "zh",
          "ch", "sh", "j", "q", "x", "g", "k", "h", "w", "y", "ky", "ny")
VOWELS = ("a", "e", "i", "o", "u")


@dataclass(frozen=True)
class Sizes:
    """Make-up of one generated input set."""

    random_atoms: int
    tier1: int
    tier2: int
    variants: int
    linked_synset_pairs: int  # related synset pairs sharing an inclusion
    filler_synsets: int
    extra_relations: int  # linked target -> filler, giving two-step paths
    docs_per_category: int
    category_share: float  # chance that a document character is its category's


SIZES = {
    # the paper's experiment at the bundled dataset's scale, with a weak
    # category signal so that neither strategy scores 1.0
    "classify": Sizes(random_atoms=5, tier1=80, tier2=200, variants=8,
                      linked_synset_pairs=20, filler_synsets=10,
                      extra_relations=15, docs_per_category=60,
                      category_share=0.15),
    # ~2.3k characters: all-pairs mining and reduction dominate
    "mine": Sizes(random_atoms=45, tier1=700, tier2=1500, variants=40,
                  linked_synset_pairs=300, filler_synsets=400,
                  extra_relations=400, docs_per_category=200,
                  category_share=0.3),
}
SIZES["annotate"] = SIZES["mine"]


@dataclass
class Dataset:
    """Paths of the written files plus the ground truth of the inventory."""

    paths: dict[str, str]
    parts: dict[int, tuple[int, ...]]  # character -> characters drawn into it


def _embed(strokes: list[Stroke], scale: float, dx: float, dy: float
           ) -> list[Stroke]:
    return [Stroke(s.calligraphic_type,
                   tuple((x * scale + dx, y * scale + dy) for x, y in s.skeleton))
            for s in strokes]


def _well_conditioned(a: Stroke, b: Stroke) -> bool:
    """Consecutive strokes either axis-parallel (the signature holds E,
    which survives rounding) or crossing at a clear angle (the
    intersection ratios are stable under rounding to 6 digits)."""
    (ax, ay), (bx, by) = a.start, a.end
    (cx, cy), (dx, dy) = b.start, b.end
    d1 = (bx - ax, by - ay)
    d2 = (dx - cx, dy - cy)
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det == 0:
        return d1[0] == 0 == d2[0] or d1[1] == 0 == d2[1]
    return abs(det) >= 0.3 * math.hypot(*d1) * math.hypot(*d2)


def _random_atom(rng: Random, types: list[str], n: int) -> list[Stroke]:
    while True:
        strokes = []
        for _ in range(n):
            start = (rng.randint(1, 9), rng.randint(1, 9))
            end = start
            while end == start:
                end = (rng.randint(1, 9), rng.randint(1, 9))
            strokes.append(Stroke(rng.choice(types), (start, end)))
        if all(_well_conditioned(strokes[i], strokes[i + 1])
               for i in range(n - 1)):
            return strokes


def _syllable(rng: Random) -> str:
    return rng.choice(ONSETS) + rng.choice(VOWELS)


def _build_characters(rng: Random, sizes: Sizes):
    atoms = [strokes for _, strokes in
             sorted(formats.parse_strokes(BUNDLED_ATOMS, "bundled atoms").items())]
    # Random atoms take the stroke types the bundled ones leave unused, and
    # stroke counts in a fixed cycle, so that the amount of matching work
    # depends little on the seed.
    types = sorted(STROKE_TYPES - {s.calligraphic_type for a in atoms for s in a})
    atoms += [_random_atom(rng, types, (1, 2, 2, 3)[i % 4])
              for i in range(sizes.random_atoms)]

    chars: dict[int, list[Stroke]] = {}
    parts: dict[int, tuple[int, ...]] = {}
    atom_cps = []
    for i, strokes in enumerate(atoms):
        cp = ATOM_BASE + i
        chars[cp] = strokes
        parts[cp] = ()
        atom_cps.append(cp)

    cp = ATOM_BASE + len(atoms)
    pairs = [(a, b) for a in atom_cps for b in atom_cps if a != b]
    tier1 = []
    for a, b in rng.sample(pairs, sizes.tier1):
        chars[cp] = (_embed(chars[a], 0.45, 0.2, 2.75)
                     + _embed(chars[b], 0.45, 5.3, 2.75))
        parts[cp] = (a, b)
        tier1.append(cp)
        cp += 1

    combos = [(t, a) for t in tier1 for a in atom_cps]
    tier2 = []
    for base, extra in rng.sample(combos, sizes.tier2):
        chars[cp] = (_embed(chars[base], 0.48, 0.2, 5.0)
                     + _embed(chars[extra], 0.48, 0.2, 0.1))
        parts[cp] = (base, extra)
        tier2.append(cp)
        cp += 1

    variant_pairs = []
    for i, orig in enumerate(sorted(rng.sample(tier1, sizes.variants))):
        var = VARIANT_BASE + i
        chars[var] = _embed(chars[orig], 0.9, 0.5, 0.5)
        parts[var] = (orig,)  # a variant must share its original's class
        variant_pairs.append((orig, var))
    return chars, parts, variant_pairs, atom_cps, tier1, tier2


def _atoms_of(cp: int, parts: dict[int, tuple[int, ...]]) -> list[int]:
    if not parts[cp]:
        return [cp]
    return [a for p in parts[cp] for a in _atoms_of(p, parts)]


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def make_inputs(outdir: str, workload: str, seed: int) -> Dataset:
    """Write the inputs of ``workload`` for ``seed`` into ``outdir``."""
    sizes = SIZES[workload]
    rng = Random(f"{workload}:{seed}")
    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, name + ".tsv")
             for name in ("strokes", "variants", "readings", "radicals",
                          "synsets", "relations", "definitions", "freq",
                          "corpus")}
    chars, parts, variant_pairs, atoms, tier1, tier2 = _build_characters(rng, sizes)
    all_cps = sorted(chars)

    _write(paths["strokes"],
           (f"{cp:X}\t{format_stroke_spec(chars[cp])}" for cp in all_cps))
    _write(paths["variants"], (f"{a:X}\t{b:X}" for a, b in variant_pairs))

    # composites inherit a part's reading half the time, so phoneticity
    # varies along inclusion chains
    pools = {"cmn": [f"{_syllable(rng)}{rng.randint(1, 4)}" for _ in range(60)],
             "ja_on": [_syllable(rng) + rng.choice(("", "n", "ku", "u"))
                       for _ in range(40)],
             "ja_kun": [" ".join(_syllable(rng) for _ in range(rng.randint(1, 4)))
                        for _ in range(60)]}
    shares = {"cmn": 0.85, "ja_on": 0.75, "ja_kun": 0.6}
    own: dict[tuple[int, str], str] = {}
    lines = []
    for cp in all_cps:
        for lang in LANGUAGES:
            if rng.random() >= shares[lang]:
                continue
            inherited = [own[p, lang] for p in parts[cp] if (p, lang) in own]
            if inherited and rng.random() < 0.5:
                reading = rng.choice(inherited)
            else:
                reading = rng.choice(pools[lang])
            own[cp, lang] = reading
            lines.append(f"{cp:X}\t{lang}\t{reading}")
    _write(paths["readings"], lines)

    radicals = []
    for cp in all_cps:
        first = _atoms_of(cp, parts)[0] - ATOM_BASE
        rad = first * 3 % 214 + 1 if rng.random() < 0.6 else rng.randint(1, 214)
        radicals.append(f"{cp:X}\t{rad}")
    _write(paths["radicals"], radicals)

    # related synsets share an inclusion: a part in the source lemma, the
    # composite in the target lemma
    composites = tier1 + tier2
    synsets: list[tuple[str, list[str]]] = []
    relations: list[tuple[str, str, str]] = []
    for k in range(sizes.linked_synset_pairs):
        whole = rng.choice(composites)
        part = rng.choice(_atoms_of(whole, parts) + list(parts[whole]))
        src, dst = f"syn{2 * k:05d}", f"syn{2 * k + 1:05d}"
        synsets.append((src, [chr(part) + chr(rng.choice(all_cps))]))
        synsets.append((dst, [chr(whole) + chr(rng.choice(all_cps))]))
        relations.append((src, rng.choice(RELATION_TYPES), dst))
    first_filler = 2 * sizes.linked_synset_pairs
    for k in range(first_filler, first_filler + sizes.filler_synsets):
        words = {"".join(chr(rng.choice(all_cps))
                         for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 2))}
        synsets.append((f"syn{k:05d}", sorted(words)))
    linked = list(relations)
    for _ in range(sizes.extra_relations):
        _, _, target = rng.choice(linked)
        filler = f"syn{rng.randrange(first_filler, first_filler + sizes.filler_synsets):05d}"
        relations.append((target, rng.choice(RELATION_TYPES), filler))
    _write(paths["synsets"], (f"{sid}\t{'|'.join(words)}" for sid, words in synsets))
    _write(paths["relations"], ("\t".join(rel) for rel in relations))

    lemma_pool = [w for _, words in synsets for w in words]
    _write(paths["definitions"],
           (f"{cp:X}\t{rng.choice(lemma_pool)}" for cp in atoms
            if rng.random() < 0.7))

    # each category prefers its own slice of tier-2 characters; the rest
    # of every document comes from a shared pool that leaves out half of
    # tier 1, so chain augmentation has unseen subcharacters to add
    shared = atoms + tier1[:len(tier1) // 2]
    per_cat = len(tier2) // len(CATEGORIES)
    docs = []
    for i, cat in enumerate(CATEGORIES):
        own_chars = tier2[i * per_cat:(i + 1) * per_cat]
        for _ in range(sizes.docs_per_category):
            text = "".join(
                chr(rng.choice(own_chars) if rng.random() < sizes.category_share
                    else rng.choice(shared))
                for _ in range(rng.randint(40, 80)))
            docs.append((cat, text))
    rng.shuffle(docs)
    _write(paths["corpus"], (f"{cat}\t{text}" for cat, text in docs))

    counts: dict[int, int] = {}
    for _, text in docs:
        for ch in text:
            counts[ord(ch)] = counts.get(ord(ch), 0) + 1
    _write(paths["freq"], (f"{cp:X}\t{counts[cp]}" for cp in sorted(counts)))
    return Dataset(paths, parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    data = make_inputs(args.outdir, args.workload, args.seed)
    for name in sorted(data.paths):
        print(data.paths[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
