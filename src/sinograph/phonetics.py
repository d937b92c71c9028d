"""Phonetic distances between readings and phoneticity of inclusion edges.

Every syllable token maps to a 7-feature vector (4 consonant features of
the onset, 3 vowel features of the nucleus); syllable distance is a
weighted Euclidean distance in that space with fixed axis weights
(4, 1, 4, 1, 5, 1, 1).  Readings of unequal syllable count are compared
with a sliding window: the shorter reading against every contiguous
same-length subword of the longer one, keeping the minimum mean
per-syllable distance.

Mandarin syllables additionally carry a tone digit; tone mismatch adds a
small fixed penalty on top of the segmental distance so that tone-only
pairs stay close.

The phoneticity of an edge maps the minimum reading distance between the
two classes onto [0, 1], with 1 at distance zero and 0 at the largest
finite distance observed in the graph.

A ``FeatureTable`` owns every quantity that depends on it alone: each
token's features and each (language, token pair) distance are computed
once per table, and the largest segmental distance when it is made.
``class_readings`` indexes the readings once per language and class,
and the class and edge distances read that index.
"""

from __future__ import annotations

import math
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .charstore import CharacterStore, Language, Reading, strip_tone
from .errors import DataError, InputError
from .formats import load_file, parse_feature_table
from .graphcore import CHAIN_KINDS, InclusionGraph

FEATURE_WEIGHTS = (4.0, 1.0, 4.0, 1.0, 5.0, 1.0, 1.0)
DEFAULT_BINS = 20
#: The most histogram bins whose edges, printed with ``:g``, all differ.
MAX_BINS = 10 ** 6

#: Fraction of the maximum segmental distance added for a Mandarin tone
#: mismatch.
TONE_PENALTY_FACTOR = 0.1

#: Language -> class id -> the readings of the class's members.
ClassReadings = Mapping[Language, Mapping[int, Sequence[Reading]]]


class FeatureTable:
    """Phoneme -> scale values, loaded from a TSV data table, and the
    syllable distances computed from them."""

    def __init__(self, consonants: dict[str, tuple[float, ...]],
                 vowels: dict[str, tuple[float, ...]]) -> None:
        self.consonants = consonants
        self.vowels = vowels
        self._onsets = sorted(consonants, key=len, reverse=True)
        self._features: dict[str, tuple[float, ...]] = {}
        self._token_distances: dict[tuple[Language, str, str], float] = {}
        # the largest distance between two syllables of this inventory,
        # which scales the tone penalty
        wc, wv = FEATURE_WEIGHTS[:4], FEATURE_WEIGHTS[4:]
        cons, vows = consonants.values(), vowels.values()
        best_c = max(sum((w * (a - b)) ** 2 for w, a, b in zip(wc, ca, cb))
                     for ca in cons for cb in cons)
        best_v = max(sum((w * (a - b)) ** 2 for w, a, b in zip(wv, va, vb))
                     for va in vows for vb in vows)
        self.max_segmental = math.sqrt(best_c + best_v)

    @classmethod
    def load(cls, path: str | None = None) -> "FeatureTable":
        if path is None:
            path = str(resources.files("sinograph") / "data" / "phoneme_features.tsv")
        return cls(*load_file(parse_feature_table, path))

    def syllable_features(self, token: str) -> tuple[float, ...]:
        """Map a romanized syllable token to its 7 feature values: the
        consonant scales of its onset, then the vowel scales of its
        nucleus.

        The longest matching onset from the consonant inventory is taken,
        then the first vowel symbol of the remainder; a missing onset or
        nucleus maps to the null phoneme.  Tone digits are ignored here.
        """
        features = self._features.get(token)
        if features is None:
            body = strip_tone(token)[0]
            onset = "-"
            for cand in self._onsets:
                if cand != "-" and body.startswith(cand):
                    onset = cand
                    body = body[len(cand):]
                    break
            vowel = next((ch for ch in body if ch in self.vowels and ch != "-"), "-")
            features = self.consonants[onset] + self.vowels[vowel]
            self._features[token] = features
        return features

    def token_distance(self, language: Language, a: str, b: str) -> float:
        """Segmental syllable distance, plus the tone penalty for a
        Mandarin tone mismatch; computed once per (language, a, b)."""
        key = (language, a, b)
        d = self._token_distances.get(key)
        if d is None:
            d = syllable_distance(self.syllable_features(a),
                                  self.syllable_features(b))
            if language is Language.MANDARIN and strip_tone(a)[1] != strip_tone(b)[1]:
                d += TONE_PENALTY_FACTOR * self.max_segmental
            self._token_distances[key] = d
        return d


def syllable_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance after scaling each axis by its weight."""
    return math.sqrt(sum(
        (w * (x - y)) ** 2 for w, x, y in zip(FEATURE_WEIGHTS, a, b)))


def class_readings(readings: Iterable[tuple[int, Reading]],
                   store: CharacterStore
                   ) -> dict[Language, dict[int, list[Reading]]]:
    """Index (codepoint, reading) pairs by language, then class id: a
    class reads as all its members do, variants included.  Codepoints
    outside every class of ``store`` are dropped."""
    class_of = store.class_of
    index: dict[Language, dict[int, list[Reading]]] = {lang: {} for lang in Language}
    for cp, reading in readings:
        if cp in class_of:
            index[reading.language].setdefault(class_of[cp], []).append(reading)
    return index


def reading_distance(r1: Reading, r2: Reading, table: FeatureTable) -> float:
    """Sliding-window distance between two readings of one language.

    Equal lengths: mean of per-position syllable distances.  Unequal:
    minimum such mean over all contiguous same-length subwords of the
    longer reading.
    """
    if r1.language is not r2.language:
        raise InputError(f"cannot compare readings across languages "
                         f"({r1.language.value} vs {r2.language.value})")
    short, long_ = sorted((r1.syllables, r2.syllables), key=len)
    k = len(short)
    best = math.inf
    for offset in range(len(long_) - k + 1):
        mean = sum(table.token_distance(r1.language, short[i], long_[offset + i])
                   for i in range(k)) / k
        best = min(best, mean)
    return best


def class_distance(readings: ClassReadings, class_a: int, class_b: int,
                   language: Language, table: FeatureTable) -> float | None:
    """Minimum reading distance over all pairs of the two classes'
    ``language`` readings in the ``class_readings`` index; ``None``
    (unknown) when either class has no reading in the language."""
    of_class = readings[language]
    readings_a, readings_b = of_class.get(class_a), of_class.get(class_b)
    if not readings_a or not readings_b:
        return None
    return min(reading_distance(ra, rb, table)
               for ra in readings_a for rb in readings_b)


def phoneticity(g: InclusionGraph, readings: ClassReadings, language: Language,
                table: FeatureTable | None = None) -> InclusionGraph:
    """Annotate every edge with its phoneticity for ``language``, from
    the ``class_readings`` index ``readings``.

    phi = 1 - d_min / D with D the maximum finite class distance over all
    edges, so phi is 1 exactly at distance 0 and the farthest edge gets 0.
    An edge with an unknown distance carries no ``language`` values: any
    an earlier pass wrote are removed.  D is recorded in the graph
    metadata.  Raises DataError, changing nothing, when no edge has a
    finite distance.  Without a ``table`` the bundled one is loaded for
    this call.
    """
    table = table or FeatureTable.load()
    lang = language.value
    distances = [(sub, sup, class_distance(readings, sub, sup, language, table))
                 for sub, sup in g.edges()]
    finite = [d for _, _, d in distances if d is not None]
    if not finite:
        raise DataError(f"no edge has a computable {lang} distance")
    d_max = max(finite)
    for sub, sup, d in distances:
        if d is None:
            if (data := g.stored(sub, sup)) is not None:
                data.d_min.pop(lang, None)
                data.phi.pop(lang, None)
        else:
            data = g.edge(sub, sup)
            data.d_min[lang] = d
            data.phi[lang] = 1.0 if d_max == 0 else 1.0 - d / d_max
    g.meta[f"phi_dmax_{lang}"] = repr(d_max)
    g.meta["phi_normalization"] = "1 - d_min / max_finite_d_min"
    return g


def least_phonetic_chain(g: InclusionGraph, start: int,
                         language: Language) -> list[int]:
    """Repeatedly descend to the incoming subcharacter with minimal
    phoneticity, skipping edges with unknown phi; ties break toward the
    lowest class id."""
    return CHAIN_KINDS["phonetic"].chain(g, start, language)


def phoneticity_histogram(g: InclusionGraph, language: Language,
                          bins: int = DEFAULT_BINS) -> tuple[list[float], list[int]]:
    """Histogram of defined phi values over [0, 1].

    Returns (bin_edges, counts); the last bin includes 1.0.  Raises
    DataError when no edge has a defined phi for the language.
    """
    if not 1 <= bins <= MAX_BINS:
        raise InputError(f"bins must be in [1, {MAX_BINS}]")
    phonetic = CHAIN_KINDS["phonetic"]
    values = [phi for a, b in g.edges()
              if (phi := phonetic.weight(g, a, b, language)) is not None]
    if not values:
        raise DataError(f"no edge carries a {language.value} phoneticity")
    counts = [0] * bins
    for v in values:
        idx = min(int(v * bins), bins - 1)
        counts[idx] += 1
    edges = [i / bins for i in range(bins + 1)]
    return edges, counts
