"""Unigram feature vectors over allographic classes, plus chain-based
augmentation.

Baseline vectors carry, per document, the relative frequency of each
class (max over member characters), restricted to classes frequent
enough corpus-wide.  Augmentation walks each in-vocabulary class's
weighted chain of subcharacters and adds discounted weight to the chain
members: depth i receives (1/i) * edge_weight * w(class).  Chain members
outside the vocabulary are added to it, tagged with their provenance.

``augment`` is the one augmentation path.  Only the chain and its edge
weight vary, and ``CHAIN_KINDS`` holds both per kind: the most semantic
chain weighted by the semanticity S, and the least phonetic chain
weighted by the phoneticity phi.  ``STRATEGIES`` names the kinds each
strategy adds, in summation order.  Each class's chain of a kind is
walked and weighed once, into steps (member, (1/i) * edge_weight); a
document then gains coef * w at each step, the same product in the same
order as (1/i) * edge_weight * w.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

from .charstore import Language
from .errors import DataError, InputError
from .graphcore import InclusionGraph
from .phonetics import least_phonetic_chain
from .semantics import most_semantic_chain

log = logging.getLogger(__name__)

DEFAULT_MIN_COUNT = 10
DEFAULT_LANGUAGE = Language.JAPANESE_ON
PROVENANCE_BASELINE = "baseline"
PROVENANCE_CHAIN = "chain"

FeatureVector = dict[int, float]


@dataclass
class Vocabulary:
    """Admitted feature ids with their provenance."""

    provenance: dict[int, str] = field(default_factory=dict)

    @property
    def ids(self) -> set[int]:
        return set(self.provenance)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.provenance

    def __len__(self) -> int:
        return len(self.provenance)

    def added_ids(self) -> set[int]:
        return {i for i, p in self.provenance.items() if p == PROVENANCE_CHAIN}

    def copy(self) -> "Vocabulary":
        return Vocabulary(dict(self.provenance))


def _l2_normalize(vec: FeatureVector) -> FeatureVector:
    norm = math.sqrt(sum(w * w for w in vec.values()))
    if norm == 0:
        return dict(vec)
    return {k: w / norm for k, w in vec.items()}


def baseline_vectors(
    texts: Sequence[str],
    class_of: Mapping[int, int],
    min_count: int = DEFAULT_MIN_COUNT,
    normalize: bool = True,
) -> tuple[Vocabulary, list[FeatureVector]]:
    """Per-document class weights from character unigrams.

    Characters without a class (punctuation, spaces, anything outside the
    store) are ignored entirely, including in the relative-frequency
    denominator.  A class's weight in a document is the maximum relative
    frequency over its member characters.  The vocabulary keeps classes
    whose members occur at least ``min_count`` times corpus-wide; vectors
    are then restricted to it and L2-normalized.
    """
    if min_count < 1:
        raise InputError("min_count must be >= 1")
    if not texts:
        raise InputError("empty corpus")
    corpus_class_counts: Counter[int] = Counter()
    doc_char_counts: list[Counter[int]] = []
    for text in texts:
        counts: Counter[int] = Counter()
        for ch in text:
            cp = ord(ch)
            if cp in class_of:
                counts[cp] += 1
        doc_char_counts.append(counts)
        for cp, c in counts.items():
            corpus_class_counts[class_of[cp]] += c

    vocab = Vocabulary({cid: PROVENANCE_BASELINE
                        for cid, c in corpus_class_counts.items()
                        if c >= min_count})
    if not vocab:
        raise DataError(f"no class reaches min_count={min_count}; "
                        f"vocabulary is empty")

    vectors: list[FeatureVector] = []
    for i, counts in enumerate(doc_char_counts):
        total = sum(counts.values())
        if total == 0:
            log.warning("document %d contains no stored characters; "
                        "emitting a zero vector", i)
            vectors.append({})
            continue
        weights: FeatureVector = {}
        for cp, c in counts.items():
            cid = class_of[cp]
            if cid in vocab:
                w = c / total
                if w > weights.get(cid, 0.0):
                    weights[cid] = w
        vectors.append(_l2_normalize(weights) if normalize else weights)
    return vocab, vectors


class ChainKind(NamedTuple):
    """How to walk one kind of chain, and the weight augmentation adds
    along each of its edges (None skips the edge)."""

    walk: Callable[[InclusionGraph, int, Language], list[int]]
    weight: Callable[[InclusionGraph, int, int, Language], float | None]


# The walks look the chain functions up by their module-level names when
# called, so a rebinding of those names (bench/spans.py times them so)
# reaches them.
CHAIN_KINDS = {
    "semantic": ChainKind(
        lambda g, start, language: most_semantic_chain(g, start),
        lambda g, sub, sup, language: g.edge(sub, sup).s),
    "phonetic": ChainKind(
        lambda g, start, language: least_phonetic_chain(g, start, language),
        lambda g, sub, sup, language: g.edge(sub, sup).phi.get(language.value)),
}

#: The chain kinds each augmentation strategy adds, in summation order.
STRATEGIES: dict[str, tuple[str, ...]] = {
    "baseline": (),
    "semantic": ("semantic",),
    "combined": ("semantic", "phonetic"),
    "phonetic": ("phonetic",),
}


def class_chains(g: InclusionGraph, class_ids: set[int], kind: str,
                 language: Language = DEFAULT_LANGUAGE) -> dict[int, list[int]]:
    """Chain of ``kind`` per class; classes outside the graph get a
    singleton chain."""
    walk = CHAIN_KINDS[kind].walk
    return {cid: walk(g, cid, language) if cid in g else [cid]
            for cid in class_ids}


def semantic_chains(g: InclusionGraph, class_ids: set[int]) -> dict[int, list[int]]:
    """``class_chains`` of the most semantic kind."""
    return class_chains(g, class_ids, "semantic")


def _compile_chains(
    g: InclusionGraph,
    chains: Mapping[int, list[int]],
    weight: Callable[[InclusionGraph, int, int, Language], float | None],
    language: Language,
) -> dict[int, list[tuple[int, float]]]:
    """Each chain's steps as (member at depth i, (1/i) * edge weight);
    steps whose edge has no weight are left out."""
    steps: dict[int, list[tuple[int, float]]] = {}
    for cid, chain in chains.items():
        compiled = []
        for i in range(1, len(chain)):
            ew = weight(g, chain[i], chain[i - 1], language)
            if ew is not None:
                compiled.append((chain[i], (1.0 / i) * ew))
        if compiled:
            steps[cid] = compiled
    return steps


def _chain_additions(vector: FeatureVector,
                     steps: Mapping[int, list[tuple[int, float]]]) -> FeatureVector:
    """Discounted chain weights triggered by one document's features."""
    additions: FeatureVector = {}
    for cid, w in vector.items():
        for member, coef in steps.get(cid, ()):
            gain = coef * w
            if gain != 0.0:
                additions[member] = additions.get(member, 0.0) + gain
    return additions


def augment(
    g: InclusionGraph,
    vocab: Vocabulary,
    vectors: Sequence[FeatureVector],
    parts: Sequence[str],
    language: Language = DEFAULT_LANGUAGE,
    normalize: bool = True,
) -> tuple[Vocabulary, list[FeatureVector]]:
    """Chain augmentation along each chain kind in ``parts``.

    For each document, each in-vocabulary class with weight w and each
    part, the class's chain member at depth i gains (1/i) * weight(edge
    at step i) * w; the semantic walk raises DataError where S is
    undefined, and edges without phi add nothing to a phonetic chain.
    Each part's gains are summed on their own and then added to the
    document's total in the order of ``parts``.  Chain members missing
    from the vocabulary are added with chain provenance.
    """
    walks = [_compile_chains(g, class_chains(g, vocab.ids, kind, language),
                             CHAIN_KINDS[kind].weight, language)
             for kind in parts]
    new_vocab = vocab.copy()
    out: list[FeatureVector] = []
    for vec in vectors:
        adds: FeatureVector = {}
        for steps in walks:
            gains = _chain_additions(vec, steps)
            for cid, gain in gains.items():
                adds[cid] = adds.get(cid, 0.0) + gain
        merged = dict(vec)
        for cid, gain in adds.items():
            merged[cid] = merged.get(cid, 0.0) + gain
            if cid not in new_vocab:
                new_vocab.provenance[cid] = PROVENANCE_CHAIN
        # untouched documents stay bit-identical
        out.append(_l2_normalize(merged) if (normalize and adds) else merged)
    return new_vocab, out


def augment_strategy1(
    g: InclusionGraph, vocab: Vocabulary, vectors: Sequence[FeatureVector],
    normalize: bool = True,
) -> tuple[Vocabulary, list[FeatureVector]]:
    """``augment`` along the most semantic chain."""
    return augment(g, vocab, vectors, STRATEGIES["semantic"],
                   normalize=normalize)


def augment_strategy2(
    g: InclusionGraph, vocab: Vocabulary, vectors: Sequence[FeatureVector],
    language: Language, include_semantic: bool = True, normalize: bool = True,
) -> tuple[Vocabulary, list[FeatureVector]]:
    """``augment`` along the most semantic and the least phonetic chain,
    or the latter alone."""
    strategy = "combined" if include_semantic else "phonetic"
    return augment(g, vocab, vectors, STRATEGIES[strategy], language,
                   normalize=normalize)
