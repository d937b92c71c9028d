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

A ``FeatureTable`` memoises what depends on it alone: each token's
features, each (language, token pair) distance and the largest segmental
distance are computed once per table, and live as long as the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Sequence

from .charstore import Language, Reading
from .errors import DataError, InputError
from .formats import parse_feature_table, read_text
from .graphcore import InclusionGraph

FEATURE_WEIGHTS = (4.0, 1.0, 4.0, 1.0, 5.0, 1.0, 1.0)
DEFAULT_BINS = 20

#: Fraction of the maximum segmental distance added for a Mandarin tone
#: mismatch.
TONE_PENALTY_FACTOR = 0.1


@dataclass(frozen=True)
class SyllableFeatures:
    consonant_place: float
    consonant_voicing: float
    consonant_manner: float
    consonant_palatalization: float
    vowel_frontness: float
    vowel_height: float
    vowel_rounding: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.consonant_place, self.consonant_voicing,
                self.consonant_manner, self.consonant_palatalization,
                self.vowel_frontness, self.vowel_height, self.vowel_rounding)


class FeatureTable:
    """Phoneme -> scale values, loaded from a TSV data table."""

    def __init__(self, consonants: dict[str, tuple[float, ...]],
                 vowels: dict[str, tuple[float, ...]]) -> None:
        self.consonants = consonants
        self.vowels = vowels
        self._onsets = sorted(consonants, key=len, reverse=True)
        self._features: dict[str, SyllableFeatures] = {}
        self._token_distances: dict[tuple[Language, str, str], float] = {}
        self._max_segmental: float | None = None

    @classmethod
    def load(cls, path: str | None = None) -> "FeatureTable":
        if path is None:
            path = "data/phoneme_features.tsv"
            text = resources.files("sinograph").joinpath(path).read_text("utf-8")
        else:
            text = read_text(path)
        return cls(*parse_feature_table(text, path))

    def syllable_features(self, token: str) -> SyllableFeatures:
        """Map a romanized syllable token to its feature vector.

        The longest matching onset from the consonant inventory is taken,
        then the first vowel symbol of the remainder; a missing onset or
        nucleus maps to the null phoneme.  Tone digits are ignored here.
        """
        features = self._features.get(token)
        if features is None:
            features = self._features[token] = self._syllable_features(token)
        return features

    def _syllable_features(self, token: str) -> SyllableFeatures:
        body = strip_tone(token)[0]
        if not body:
            raise InputError(f"empty syllable token {token!r}")
        onset = "-"
        for cand in self._onsets:
            if cand != "-" and body.startswith(cand):
                onset = cand
                body = body[len(cand):]
                break
        vowel = next((ch for ch in body if ch in self.vowels and ch != "-"), "-")
        c = self.consonants[onset]
        v = self.vowels[vowel]
        return SyllableFeatures(*c, *v)

    def max_segmental_distance(self) -> float:
        """Largest weighted distance realizable between two syllables of
        this inventory (used to scale the tone penalty)."""
        if self._max_segmental is None:
            wc, wv = FEATURE_WEIGHTS[:4], FEATURE_WEIGHTS[4:]
            cons, vows = self.consonants.values(), self.vowels.values()
            best_c = max(sum((w * (a - b)) ** 2 for w, a, b in zip(wc, ca, cb))
                         for ca in cons for cb in cons)
            best_v = max(sum((w * (a - b)) ** 2 for w, a, b in zip(wv, va, vb))
                         for va in vows for vb in vows)
            self._max_segmental = math.sqrt(best_c + best_v)
        return self._max_segmental


def strip_tone(token: str) -> tuple[str, int]:
    """Split a syllable token into its segmental body and tone digit
    (0 when absent)."""
    token = token.strip().lower()
    if token and token[-1].isdigit():
        return token[:-1], int(token[-1])
    return token, 0


def syllable_distance(a: SyllableFeatures, b: SyllableFeatures) -> float:
    """Euclidean distance after scaling each axis by its weight."""
    return math.sqrt(sum(
        (w * (x - y)) ** 2
        for w, x, y in zip(FEATURE_WEIGHTS, a.as_tuple(), b.as_tuple())))


def token_distance(language: Language, a: str, b: str,
                   table: FeatureTable) -> float:
    """Segmental syllable distance, plus the tone penalty for a Mandarin
    tone mismatch; computed once per (language, a, b) and table."""
    key = (language, a, b)
    d = table._token_distances.get(key)
    if d is None:
        d = syllable_distance(table.syllable_features(a), table.syllable_features(b))
        if language is Language.MANDARIN and strip_tone(a)[1] != strip_tone(b)[1]:
            d += TONE_PENALTY_FACTOR * table.max_segmental_distance()
        table._token_distances[key] = d
    return d


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
        mean = sum(token_distance(r1.language, short[i], long_[offset + i], table)
                   for i in range(k)) / k
        best = min(best, mean)
    return best


def class_distance(readings: Mapping[int, Sequence[Reading]], class_a: int,
                   class_b: int, language: Language,
                   table: FeatureTable) -> float | None:
    """Minimum reading distance over all pairs of the two classes'
    readings, ``readings`` mapping a class id to the readings of all its
    members; ``None`` (unknown) when either class has no reading in the
    language."""
    readings_a = [r for r in readings.get(class_a, ()) if r.language is language]
    readings_b = [r for r in readings.get(class_b, ()) if r.language is language]
    if not readings_a or not readings_b:
        return None
    return min(reading_distance(ra, rb, table)
               for ra in readings_a for rb in readings_b)


def phoneticity(g: InclusionGraph, readings: Mapping[int, Sequence[Reading]],
                language: Language,
                table: FeatureTable | None = None) -> InclusionGraph:
    """Annotate every edge with its phoneticity for ``language``, from
    ``readings`` mapping each class id to the readings of its members.

    phi = 1 - d_min / D with D the maximum finite class distance over all
    edges, so phi is 1 exactly at distance 0 and the farthest edge gets 0.
    Edges with an unknown distance stay unannotated.  D is recorded in the
    graph metadata.  Raises DataError when no edge has a finite distance.
    Without a ``table`` the bundled one is loaded for this call.
    """
    table = table or FeatureTable.load()
    distances: dict[tuple[int, int], float] = {}
    for sub, sup in g.edges():
        d = class_distance(readings, sub, sup, language, table)
        if d is not None:
            distances[(sub, sup)] = d
    if not distances:
        raise DataError(f"no edge has a computable {language.value} distance")
    d_max = max(distances.values())
    for (sub, sup), d in distances.items():
        data = g.edge(sub, sup)
        data.d_min[language.value] = d
        data.phi[language.value] = 1.0 if d_max == 0 else 1.0 - d / d_max
    g.meta[f"phi_dmax_{language.value}"] = repr(d_max)
    g.meta["phi_normalization"] = "1 - d_min / max_finite_d_min"
    return g


def least_phonetic_chain(g: InclusionGraph, start: int,
                         language: Language) -> list[int]:
    """Repeatedly descend to the incoming subcharacter with minimal
    phoneticity, skipping edges with unknown phi; ties break toward the
    lowest class id."""
    lang = language.value
    return g.descend(start, lambda sub, sup: g.edge(sub, sup).phi.get(lang))


def phoneticity_histogram(g: InclusionGraph, language: Language,
                          bins: int = DEFAULT_BINS) -> tuple[list[float], list[int]]:
    """Histogram of defined phi values over [0, 1].

    Returns (bin_edges, counts); the last bin includes 1.0.  Raises
    DataError when no edge has a defined phi for the language.
    """
    if bins < 1:
        raise InputError("bins must be >= 1")
    lang = language.value
    values = [g.edge(a, b).phi[lang] for a, b in g.edges()
              if lang in g.edge(a, b).phi]
    if not values:
        raise DataError(f"no edge carries a {lang} phoneticity")
    counts = [0] * bins
    for v in values:
        idx = min(int(v * bins), bins - 1)
        counts[idx] += 1
    edges = [i / bins for i in range(bins + 1)]
    return edges, counts
