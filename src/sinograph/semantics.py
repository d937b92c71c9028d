"""Synset store, semantic annotation and the semanticity of inclusions.

Semanticity of an edge subcharacter -> character is estimated from three
signals: how often member characters of the two classes appear in words
linked by a direct synset relation (f1), by a two-step relation path
(f2), and how often the two sides share a Kāng Xī radical (r).  The raw
score 0.5*log(1+f1) + 0.25*log(1+f2) + 0.25*r (natural log) is divided
by its maximum over all edges so values land in [0, 1].

The counts are two sparse products.  Let L_c be the synset weight vector
of class c: L_c[y] is the number of (lemma word of synset y, member of c)
pairs whose member character occurs in the word.  Let R be the relation
multiplicity matrix: R[x, y] counts the relations x -> y, one per
relation type.  Then

    f1(sub, sup) = L_sub R L_sup^T        f2(sub, sup) = L_sub R^2 L_sup^T

in exact integers.  ``annotate_semanticity`` builds L once per class
from the store's char -> synset index, and L_sub R and L_sub R^2 once
per subcharacter class, each step at most one pass over the relations.
An edge then costs one sparse dot product over L_sup, at most the number
of synsets, where scanning every relation per edge cost O(edges x
relations x lemmas).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .charstore import AllographClass, CharacterStore
from .errors import DataError, InputError
from .graphcore import CHAIN_KINDS, InclusionGraph

#: Default mixing coefficients for (f1, f2, r).
SEMANTICITY_COEFFICIENTS = (0.5, 0.25, 0.25)


@dataclass(frozen=True, slots=True)
class SemRelation:
    """One typed relation between two synsets.  Slotted: an instance holds
    its fields and no per-instance ``__dict__``."""

    source: str
    relation_type: str
    target: str


class SynsetStore:
    """Synsets (id -> lemma words), typed relations between them, and the
    derived indices used by the counting operations."""

    def __init__(self) -> None:
        self._lemmas: dict[str, frozenset[str]] = {}
        # a dict, to keep each distinct relation once in insertion order
        self._relations: dict[SemRelation, None] = {}
        self._successors: dict[str, Counter[str]] = defaultdict(Counter)
        self._word_index: dict[str, set[str]] = defaultdict(set)
        # char -> synset id -> number of the synset's lemma words holding it
        self._char_index: dict[str, Counter[str]] = defaultdict(Counter)

    def add_synset(self, synset_id: str, lemmas: Iterable[str]) -> None:
        lemmaset = frozenset(w for w in lemmas if w)
        if not lemmaset:
            raise InputError(f"synset {synset_id!r} has no lemmas")
        if synset_id in self._lemmas:
            raise InputError(f"duplicate synset id {synset_id!r}")
        self._lemmas[synset_id] = lemmaset
        for w in lemmaset:
            self._word_index[w].add(synset_id)
            for ch in set(w):
                self._char_index[ch][synset_id] += 1

    def add_relation(self, source: str, relation_type: str, target: str) -> None:
        for role, synset_id in (("source", source), ("target", target)):
            if synset_id not in self._lemmas:
                raise InputError(f"relation {role} {synset_id!r} is not a "
                                 f"declared synset")
        rel = SemRelation(source, relation_type, target)
        if rel not in self._relations:
            self._relations[rel] = None
            self._successors[source][target] += 1

    def lemmas(self, synset_id: str) -> frozenset[str]:
        try:
            return self._lemmas[synset_id]
        except KeyError:
            raise DataError(f"unknown synset {synset_id!r}") from None

    @property
    def relations(self) -> list[SemRelation]:
        return list(self._relations)

    def synsets_of_word(self, word: str) -> set[str]:
        return set(self._word_index.get(word, ()))

    def lemma_char_counts(self, char: str) -> Mapping[str, int]:
        """Synset id -> number of its lemma words containing ``char``
        (read-only view)."""
        return self._char_index.get(char, {})

    def successor_counts(self, synset_id: str) -> Mapping[str, int]:
        """Target synset id -> number of relations ``synset_id -> target``,
        one per relation type (read-only view)."""
        return self._successors.get(synset_id, {})


def annotate_classes(
    store: SynsetStore,
    definitions: Mapping[int, Iterable[str]],
    classes: Sequence[AllographClass],
) -> dict[int, set[str]]:
    """Attach synset ids to allographic classes.

    A class receives a synset when a member's gloss word equals one of the
    synset's lemmas, or when the member character itself occurs inside a
    lemma word.  Classes may end up unannotated.
    """
    out: dict[int, set[str]] = {}
    for cls in classes:
        ids: set[str] = set()
        for cp in cls.members:
            for gloss in definitions.get(cp, ()):
                ids |= store.synsets_of_word(gloss)
            ids.update(store.lemma_char_counts(chr(cp)))
        if ids:
            out[cls.id] = ids
    return out


def _lemma_weights(members: frozenset[int],
                   store: SynsetStore) -> dict[str, int]:
    """L_c: synset id -> number of (lemma word, member) pairs whose member
    character occurs in the word."""
    weights: dict[str, int] = defaultdict(int)
    for cp in members:
        for synset_id, n in store.lemma_char_counts(chr(cp)).items():
            weights[synset_id] += n
    return weights


def _relation_step(weights: Mapping[str, int],
                   store: SynsetStore) -> dict[str, int]:
    """The row vector ``weights`` times the relation multiplicity R."""
    out: dict[str, int] = defaultdict(int)
    for synset_id, w in weights.items():
        for target, n in store.successor_counts(synset_id).items():
            out[target] += w * n
    return out


def _dot(a: Mapping[str, int], b: Mapping[str, int]) -> int:
    if len(a) > len(b):
        a, b = b, a
    return sum(w * b[k] for k, w in a.items() if k in b)


def _relation_counts(pairs: Iterable[tuple[AllographClass, AllographClass]],
                     store: SynsetStore) -> Iterator[tuple[int, int]]:
    """(f1, f2) of each (sub, sup) pair, in order: L_sub R L_sup^T and
    L_sub R^2 L_sup^T, with L and the L_sub R^k products cached per
    class."""
    lemma: dict[AllographClass, dict[str, int]] = {}
    steps: dict[AllographClass, tuple[dict[str, int], dict[str, int]]] = {}
    for sub, sup in pairs:
        if sub not in steps:
            if sub not in lemma:
                lemma[sub] = _lemma_weights(sub.members, store)
            one = _relation_step(lemma[sub], store)
            steps[sub] = one, _relation_step(one, store)
        if sup not in lemma:
            lemma[sup] = _lemma_weights(sup.members, store)
        one, two = steps[sub]
        yield _dot(one, lemma[sup]), _dot(two, lemma[sup])


def count_f1(sub: AllographClass, sup: AllographClass,
             store: SynsetStore) -> int:
    """Semantic weight of an inclusion from one-step synset relations.

    Counts distinct tuples (relation, word1, word2, s, c): the relation
    links synset1 -> synset2, s is a member of the subcharacter class
    occurring in word1 (a lemma of synset1), and c a member of the
    containing class occurring in word2 (a lemma of synset2).
    """
    return next(_relation_counts([(sub, sup)], store))[0]


def count_f2(sub: AllographClass, sup: AllographClass,
             store: SynsetStore) -> int:
    """Like ``count_f1`` but over two-step relation paths
    synset1 -> mid -> synset2 (any relation types); one-step pairs do not
    count here.  Distinct intermediate synsets yield distinct tuples."""
    return next(_relation_counts([(sub, sup)], store))[1]


def radical_agreement(sub: AllographClass, sup: AllographClass,
                      radicals: Mapping[int, int]) -> float:
    """Fraction of member pairs sharing the same Kāng Xī radical; pairs
    with a missing radical count as disagreement."""
    n, m = len(sub.members), len(sup.members)
    agree = 0
    for s in sub.members:
        rs = radicals.get(s)
        if rs is None:
            continue
        for c in sup.members:
            if radicals.get(c) == rs:
                agree += 1
    return agree / (n * m)


def semanticity(
    g: InclusionGraph,
    f1: Mapping[tuple[int, int], int] | None = None,
    f2: Mapping[tuple[int, int], int] | None = None,
    r: Mapping[tuple[int, int], float] | None = None,
    coefficients: tuple[float, float, float] = SEMANTICITY_COEFFICIENTS,
) -> InclusionGraph:
    """Annotate every edge with its semanticity.

    Raw score per edge: a*log(1+f1) + b*log(1+f2) + c*r with natural
    logarithms and counts defaulting to 0 where absent.  Raw scores are
    divided by their maximum over all edges (recorded in the metadata);
    if every raw score is 0 all edges get S = 0.  Coefficients must be
    finite and nonnegative (InputError), and a maximum that overflows to
    inf is refused (DataError).
    """
    if len(coefficients) != 3 or any(not 0 <= c < math.inf for c in coefficients):
        raise InputError("coefficients must be three finite nonnegative numbers")
    f1 = f1 or {}
    f2 = f2 or {}
    r = r or {}
    a, b, c = coefficients
    raw: dict[tuple[int, int], float] = {}
    for key in g.edges():
        data = g.edge(*key)
        data.f1 = int(f1.get(key, 0))
        data.f2 = int(f2.get(key, 0))
        data.r = float(r.get(key, 0.0))
        raw[key] = (a * math.log1p(data.f1) + b * math.log1p(data.f2)
                    + c * data.r)
    max_raw = max(raw.values(), default=0.0)
    if not math.isfinite(max_raw):
        raise DataError(f"largest raw semanticity {max_raw!r} is not finite; "
                        f"the coefficients are too large")
    for key, value in raw.items():
        data = g.edge(*key)
        data.s_raw = value
        data.s = value / max_raw if max_raw > 0 else 0.0
    g.meta["s_raw_max"] = repr(max_raw)
    return g


def annotate_semanticity(
    g: InclusionGraph,
    charstore: CharacterStore,
    store: SynsetStore | None,
    radicals: Mapping[int, int],
    coefficients: tuple[float, float, float] = SEMANTICITY_COEFFICIENTS,
) -> InclusionGraph:
    """Compute f1/f2/r for every edge from raw resources, then the
    normalized semanticity."""
    edges = g.edges()
    f1: dict[tuple[int, int], int] = {}
    f2: dict[tuple[int, int], int] = {}
    r: dict[tuple[int, int], float] = {}
    if store is not None:
        pairs = [(charstore.by_id[sub], charstore.by_id[sup]) for sub, sup in edges]
        for key, (n1, n2) in zip(edges, _relation_counts(pairs, store)):
            f1[key], f2[key] = n1, n2
    if radicals:
        for sub_id, sup_id in edges:
            r[(sub_id, sup_id)] = radical_agreement(
                charstore.by_id[sub_id], charstore.by_id[sup_id], radicals)
    return semanticity(g, f1, f2, r, coefficients)


def most_semantic_chain(g: InclusionGraph, start: int) -> list[int]:
    """Repeatedly descend to the incoming subcharacter with maximal
    semanticity (S = 0 is a value and stays eligible); ties break toward
    the lowest class id; stops at a node without incoming edges."""
    return CHAIN_KINDS["semantic"].chain(g, start)
