"""Character frequency lists, the rank-based list distance and aggregation.

A frequency list is an ordered tuple of (codepoint, relative frequency)
pairs.  Two lists are compared through their N-common characters: the
coverage factor says how many such characters there are relative to N,
and a Spearman correlation of the two restricted rankings says how
similarly they are ordered.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InputError

log = logging.getLogger(__name__)

DEFAULT_N = 3000


@dataclass(frozen=True)
class FrequencyList:
    """Entries sorted by nonincreasing frequency.

    Lists built from texts carry unit frequency mass; aggregated lists
    (see ``aggregate_ufl``) may exceed it, which is logged rather than
    rejected.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        cps = [cp for cp, _ in self.entries]
        if len(cps) != len(set(cps)):
            raise InputError("frequency list has duplicate codepoints")
        freqs = [f for _, f in self.entries]
        if any(f <= 0 for f in freqs):
            raise InputError("frequencies must be positive")
        if any(freqs[i] < freqs[i + 1] for i in range(len(freqs) - 1)):
            raise InputError("entries must be sorted by nonincreasing frequency")
        if sum(freqs) > 1.0 + 1e-6:
            log.warning("frequency list mass %.6f exceeds 1", sum(freqs))

    def __len__(self) -> int:
        return len(self.entries)

    def charset(self) -> set[int]:
        return {cp for cp, _ in self.entries}

    def head_chars(self, n: int) -> set[int]:
        return {cp for cp, _ in self.entries[:n]}

    def as_dict(self) -> dict[int, float]:
        return dict(self.entries)


def from_counts(counts: Mapping[int, int]) -> FrequencyList:
    """Relative-frequency list from raw occurrence counts.

    Ties are ordered deterministically: descending count, then ascending
    codepoint.
    """
    if not counts:
        raise InputError("cannot build a frequency list from empty counts")
    if any(c <= 0 for c in counts.values()):
        raise InputError("counts must be positive")
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return FrequencyList(entries=tuple((cp, cnt / total) for cp, cnt in ordered))


def comchar(a: FrequencyList, b: FrequencyList, n: int) -> set[int]:
    """The N-common characters of two lists: heads of each list restricted
    to membership in the other, united."""
    if n < 1:
        raise InputError("N must be >= 1")
    return (a.head_chars(n) & b.charset()) | (b.head_chars(n) & a.charset())


def _average_ranks(restricted: Sequence[tuple[int, float]]) -> dict[int, float]:
    """Rank (1 = most frequent) of each codepoint, equal frequencies
    sharing their average rank."""
    ranks: dict[int, float] = {}
    i = 0
    while i < len(restricted):
        j = i
        while j + 1 < len(restricted) and restricted[j + 1][1] == restricted[i][1]:
            j += 1
        avg = (i + j) / 2 + 1  # positions are 1-based
        for k in range(i, j + 1):
            ranks[restricted[k][0]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of two equal-length rank vectors.

    Returns 1.0 for identical vectors; 0.0 when either vector has zero
    variance (no ordering information), a convention documented for the
    list distance below.
    """
    if len(xs) != len(ys):
        raise InputError("rank vectors must have equal length")
    n = len(xs)
    if n == 0:
        raise InputError("rank vectors must be nonempty")
    if tuple(xs) == tuple(ys):
        return 1.0
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


def distance_dN(a: FrequencyList, b: FrequencyList, n: int) -> float:
    """Rank distance between two frequency lists.

    d = 1 - cov * (rho + 1) / 2, with cov = |comchar| / N the N-common
    coverage factor, in [0, 2], and rho the Spearman correlation of
    the two lists restricted to their N-common characters, each ordered by
    its own ranking (average ranks on frequency ties).  With fewer than
    two common characters rho carries no information and is taken as 0
    (empty overlap gives d = 1 outright).  Values outside [0, 1] are
    possible by construction (the coverage factor may exceed 1); they are
    logged, not clamped.
    """
    common = comchar(a, b, n)
    cov = len(common) / n
    if not common:
        return 1.0
    if len(common) == 1:
        rho = 0.0
    else:
        ra = _average_ranks([e for e in a.entries if e[0] in common])
        rb = _average_ranks([e for e in b.entries if e[0] in common])
        order = sorted(common)
        rho = spearman([ra[cp] for cp in order], [rb[cp] for cp in order])
    d = 1.0 - cov * (rho + 1.0) / 2.0
    if not 0.0 <= d <= 1.0 + 1e-12:
        log.warning("list distance %.6f outside [0, 1] (cov=%.4f, rho=%.4f)",
                    d, cov, rho)
    return d


def aggregate_ufl(lists: Sequence[FrequencyList],
                  renormalize: bool = False) -> FrequencyList:
    """Aggregate several frequency lists into one universal list.

    Each list contributes its frequencies weighted by the ratio of its
    character-set size to the size of the union character set.  The
    printed weights do not guarantee the result sums to 1; pass
    ``renormalize=True`` to rescale to a probability distribution.
    """
    if not lists:
        raise InputError("need at least one list to aggregate")
    union: set[int] = set()
    for fl in lists:
        union |= fl.charset()
    total_chars = len(union)
    agg: dict[int, float] = {cp: 0.0 for cp in union}
    for fl in lists:
        weight = len(fl) / total_chars
        for cp, f in fl.entries:
            agg[cp] += f * weight
    if renormalize:
        s = sum(agg.values())
        agg = {cp: f / s for cp, f in agg.items()}
    ordered = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))
    return FrequencyList(entries=tuple(ordered))


def distance_matrix(lists: Sequence[FrequencyList],
                    n: int = DEFAULT_N) -> list[list[float]]:
    """Symmetric pairwise list-distance matrix with zero diagonal."""
    if len(lists) < 2:
        raise InputError("need at least two lists for a distance matrix")
    m = len(lists)
    mat = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = distance_dN(lists[i], lists[j], n)
            mat[i][j] = mat[j][i] = d
    return mat
