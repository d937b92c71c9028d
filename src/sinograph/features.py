"""Unigram feature vectors over allographic classes, plus chain-based
augmentation.

Baseline vectors carry, per document, the relative frequency of each
class (max over member characters), restricted to classes frequent
enough corpus-wide.  Augmentation walks each in-vocabulary class's
weighted chain of subcharacters and adds discounted weight to the chain
members: depth i receives (1/i) * edge_weight * w(class).  Chain members
outside the vocabulary are added to it, tagged with their provenance.

``document_vectors`` is the pipeline's path: it counts the vocabulary
over the whole corpus and compiles the chain steps, then builds and
augments one document's vector at a time, so a caller can write each
before the next is made and only one is held.  ``baseline_vectors``
and ``augment`` collect the same per-document work into lists.

One augmentation step serves both ``augment`` and ``document_vectors``,
and only the chain kind varies: ``STRATEGIES`` names the
``graphcore.CHAIN_KINDS`` each strategy adds, in summation order.  The
step is made once, with each class's chain of a kind walked into steps
(member, (1/i) * edge_weight); a document then gains coef * w at each
step, the same product in the same order as (1/i) * edge_weight * w.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, KeysView, Mapping, Sequence

from .charstore import Language
from .errors import DataError, InputError
from .graphcore import CHAIN_KINDS, InclusionGraph

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
    def ids(self) -> KeysView[int]:
        return self.provenance.keys()

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


def _vocabulary(texts: Sequence[str], class_of: Mapping[int, int],
                min_count: int) -> Vocabulary:
    """The classes whose members occur at least ``min_count`` times in
    ``texts``, in order of first occurrence.  ``Counter`` counts each
    text in C and keeps its characters in that order."""
    if min_count < 1:
        raise InputError("min_count must be >= 1")
    if not texts:
        raise InputError("empty corpus")
    char_counts: Counter[str] = Counter()
    for text in texts:
        char_counts.update(text)
    class_counts: Counter[int] = Counter()
    for ch, c in char_counts.items():
        cid = class_of.get(ord(ch))
        if cid is not None:
            class_counts[cid] += c
    vocab = Vocabulary({cid: PROVENANCE_BASELINE
                        for cid, c in class_counts.items() if c >= min_count})
    if not vocab:
        raise DataError(f"no class reaches min_count={min_count}; "
                        f"vocabulary is empty")
    return vocab


def _baseline_vector(index: int, text: str, class_of: Mapping[int, int],
                     vocab: Vocabulary, normalize: bool) -> FeatureVector:
    """The class weights of document ``index``.  A class keeps the
    largest count of its members, divided by the total only then: the
    division is monotonic, so that is the largest relative frequency."""
    in_vocab = vocab.provenance
    total = 0
    top: dict[int, int] = {}
    for ch, c in Counter(text).items():
        cid = class_of.get(ord(ch))
        if cid is None:
            continue
        total += c
        if cid in in_vocab and c > top.get(cid, 0):
            top[cid] = c
    if total == 0:
        log.warning("document %d contains no stored characters; "
                    "emitting a zero vector", index)
        return {}
    weights = {cid: c / total for cid, c in top.items()}
    return _l2_normalize(weights) if normalize else weights


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
    vocab = _vocabulary(texts, class_of, min_count)
    return vocab, [_baseline_vector(i, text, class_of, vocab, normalize)
                   for i, text in enumerate(texts)]


#: The chain kinds each augmentation strategy adds, in summation order.
STRATEGIES: dict[str, tuple[str, ...]] = {
    "baseline": (),
    "semantic": ("semantic",),
    "combined": ("semantic", "phonetic"),
    "phonetic": ("phonetic",),
}
DEFAULT_STRATEGY = "baseline"


def semantic_chains(g: InclusionGraph, class_ids: set[int]) -> dict[int, list[int]]:
    """The most semantic chain of each class; classes outside the graph
    get a singleton chain."""
    semantic = CHAIN_KINDS["semantic"]
    return {cid: semantic.chain(g, cid) if cid in g else [cid]
            for cid in class_ids}


def _chain_steps(g: InclusionGraph, vocab: Vocabulary, parts: Sequence[str],
                 language: Language) -> list[dict[int, list[tuple[int, float]]]]:
    """Per kind in ``parts``, each vocabulary class's chain walked once
    into steps (member at depth i, (1/i) * weight of the edge taken); a
    class outside the graph or without predecessors has none."""
    compiled = []
    for kind in parts:
        walk = CHAIN_KINDS[kind].walk
        steps: dict[int, list[tuple[int, float]]] = {}
        for cid in vocab.ids:
            if cid in g and (walked := walk(g, cid, language)):
                steps[cid] = [(member, (1.0 / i) * w)
                              for i, (member, w) in enumerate(walked, 1)]
        compiled.append(steps)
    return compiled


def _augmentation(g: InclusionGraph, vocab: Vocabulary, parts: Sequence[str],
                  language: Language, normalize: bool
                  ) -> tuple[Vocabulary, Callable[[FeatureVector], FeatureVector]]:
    """The augmented vocabulary, and the step that augments one
    document's vector with the gains of each part in ``parts``; the
    chain members a step adds join the vocabulary."""
    walks = _chain_steps(g, vocab, parts, language)
    new_vocab = vocab.copy()

    def step(vec: FeatureVector) -> FeatureVector:
        adds: FeatureVector = {}
        for steps in walks:
            # each part's gains are summed on their own, then added
            gains: FeatureVector = {}
            for cid, w in vec.items():
                for member, coef in steps.get(cid, ()):
                    if (gain := coef * w) != 0.0:
                        gains[member] = gains.get(member, 0.0) + gain
            for cid, gain in gains.items():
                adds[cid] = adds.get(cid, 0.0) + gain
        merged = dict(vec)
        for cid, gain in adds.items():
            merged[cid] = merged.get(cid, 0.0) + gain
            if cid not in new_vocab:
                new_vocab.provenance[cid] = PROVENANCE_CHAIN
        # untouched documents stay bit-identical
        return _l2_normalize(merged) if (normalize and adds) else merged

    return new_vocab, step


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
    new_vocab, step = _augmentation(g, vocab, parts, language, normalize)
    return new_vocab, [step(vec) for vec in vectors]


def document_vectors(
    g: InclusionGraph,
    texts: Sequence[str],
    class_of: Mapping[int, int],
    parts: Sequence[str],
    language: Language = DEFAULT_LANGUAGE,
    min_count: int = DEFAULT_MIN_COUNT,
) -> tuple[Vocabulary, Iterator[FeatureVector]]:
    """``augment`` of ``baseline_vectors``, one document at a time.

    Every input and data error is raised here, before the first vector:
    the vocabulary pass and the chain steps run now, and each document's
    vector is built and augmented only when the iterator reaches it.
    The returned vocabulary gains the chain members as the documents are
    drawn, and is complete once all of them are.
    """
    vocab = _vocabulary(texts, class_of, min_count)
    new_vocab, step = _augmentation(g, vocab, parts, language, normalize=True)
    return new_vocab, (step(_baseline_vector(i, text, class_of, vocab, True))
                       for i, text in enumerate(texts))


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
