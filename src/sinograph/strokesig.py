"""Stroke-pair signatures and subcharacter-inclusion mining.

A character is represented by its ordered stroke types plus, for every
pair of consecutive strokes, a 4-tuple relating the two strokes through
relative sizes and the location of the (extrapolated) intersection of
the lines through their endpoints.  The tuple is invariant under
translation and uniform positive scaling, which is what makes a
component's representation reappear verbatim wherever the component is
embedded inside a larger character.

Subcharacter inclusion is then detected as a contiguous match of one
character's full representation inside another's.  A match needs the
inner character's stroke types to equal a contiguous window of the
outer character's exactly, so mining indexes the characters by their
stroke-type sequence and looks up only the windows of each outer
character, at the lengths inner characters have; each hit is then
verified with the tolerance check of ``signature_contains``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InputError

#: The 36 calligraphic stroke classes (Unicode CJK Strokes block annotations).
STROKE_TYPES = frozenset({
    "T", "WG", "XG", "BXG", "SW", "HZZ", "HZG", "HP", "HZWG", "SZWG",
    "HZT", "HZZP", "HPWG", "HZW", "HZZZ", "N", "H", "S", "P", "SP",
    "D", "HZ", "HG", "SZ", "SWZ", "ST", "SG", "PD", "PZ", "TN",
    "SZZ", "SWG", "HXWG", "HZZZG", "PG", "Q",
})

#: Marker for signature components whose defining expression has no value
#: (zero denominator, or parallel endpoint lines with no intersection).
E = "E"

SigComponent = float | str  # a finite nonnegative float, or the marker E

# Relative tolerance used only to decide whether two endpoint lines are
# parallel; components themselves are compared with the caller's tolerance.
_PARALLEL_EPS = 1e-9
DEFAULT_TOLERANCE = 0.05


def normalize_stroke_type(token: str) -> str:
    code = token.strip().upper()
    if code not in STROKE_TYPES:
        raise InputError(f"unknown stroke type {token!r}")
    return code


@dataclass(frozen=True)
class Stroke:
    """One stroke: its calligraphic class and skeleton polyline."""

    calligraphic_type: str
    skeleton: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.skeleton) < 2:
            raise InputError("stroke skeleton needs at least 2 points")

    @property
    def start(self) -> tuple[float, float]:
        return self.skeleton[0]

    @property
    def end(self) -> tuple[float, float]:
        return self.skeleton[-1]


@dataclass(frozen=True)
class StrokePairSignature:
    p1: SigComponent
    p2: SigComponent
    p3: SigComponent
    p4: SigComponent

    def as_tuple(self) -> tuple[SigComponent, SigComponent, SigComponent, SigComponent]:
        return (self.p1, self.p2, self.p3, self.p4)


@dataclass(frozen=True)
class CharSignature:
    """Ordered stroke types plus one pair signature per consecutive pair."""

    stroke_types: tuple[str, ...]
    pair_sigs: tuple[StrokePairSignature, ...]

    def __post_init__(self) -> None:
        if len(self.pair_sigs) != max(len(self.stroke_types) - 1, 0):
            raise InputError("need exactly one pair signature per consecutive "
                             "stroke pair")

    def __len__(self) -> int:
        return len(self.stroke_types)


def _ratio(num: float, den: float) -> SigComponent:
    if den == 0.0:
        return E
    return num / den


def pair_signature(s1: Stroke, s2: Stroke) -> StrokePairSignature:
    """Signature of two strokes from their endpoint segments.

    With s1 endpoints (x1,y1)-(x2,y2), s2 endpoints (x3,y3)-(x4,y4) and
    (x0,y0) the intersection of the infinite lines through those endpoint
    pairs:

    * p1 = dist((x0,y0),(x1,y1)) / dist((x2,y2),(x1,y1))
    * p2 = |x4-x3| / |x2-x1|
    * p3 = |y4-y3| / |y2-y1|
    * p4 = dist((x0,y0),(x3,y3)) / dist((x4,y4),(x3,y3))

    A zero denominator, or parallel lines (no intersection), yields E for
    the affected components.
    """
    (x1, y1), (x2, y2) = s1.start, s1.end
    (x3, y3), (x4, y4) = s2.start, s2.end
    if (x1, y1) == (x2, y2):
        raise InputError("first stroke is degenerate (coincident endpoints)")
    if (x3, y3) == (x4, y4):
        raise InputError("second stroke is degenerate (coincident endpoints)")

    d1x, d1y = x2 - x1, y2 - y1
    d2x, d2y = x4 - x3, y4 - y3
    len1 = math.hypot(d1x, d1y)
    len2 = math.hypot(d2x, d2y)

    det = d1x * d2y - d1y * d2x
    if abs(det) <= _PARALLEL_EPS * len1 * len2:
        p1: SigComponent = E
        p4: SigComponent = E
    else:
        # solve (x1,y1) + t*(d1x,d1y) == (x3,y3) + u*(d2x,d2y)
        t = ((x3 - x1) * d2y - (y3 - y1) * d2x) / det
        x0, y0 = x1 + t * d1x, y1 + t * d1y
        p1 = math.hypot(x0 - x1, y0 - y1) / len1
        p4 = math.hypot(x0 - x3, y0 - y3) / len2

    return StrokePairSignature(
        p1=p1,
        p2=_ratio(abs(d2x), abs(d1x)),
        p3=_ratio(abs(d2y), abs(d1y)),
        p4=p4,
    )


def char_signature(strokes: Sequence[Stroke]) -> CharSignature:
    """Signature of a whole character from its ordered strokes."""
    if not strokes:
        raise InputError("character has no strokes")
    sigs = []
    for i in range(len(strokes) - 1):
        try:
            sigs.append(pair_signature(strokes[i], strokes[i + 1]))
        except InputError as exc:
            raise InputError(f"stroke pair ({i}, {i + 1}): {exc}") from None
    return CharSignature(
        stroke_types=tuple(s.calligraphic_type for s in strokes),
        pair_sigs=tuple(sigs),
    )


def _components_match(a: StrokePairSignature, b: StrokePairSignature,
                      tolerance: float) -> bool:
    for va, vb in zip(a.as_tuple(), b.as_tuple()):
        if isinstance(va, str) or isinstance(vb, str):
            if va != vb:  # E matches only E
                return False
        elif not abs(va - vb) <= tolerance:  # a NaN difference mismatches
            return False
    return True


def signature_contains(inner: CharSignature, outer: CharSignature,
                       tolerance: float) -> bool:
    """True if ``inner`` occurs as a contiguous block inside ``outer``.

    Stroke types must match exactly at some offset and every aligned pair
    signature must match within ``tolerance`` (E only against E).  Only
    strict containment counts: an equal-length match is an identity, not
    an inclusion.
    """
    k = len(inner.stroke_types)
    n = len(outer.stroke_types)
    if k >= n:
        return False
    for offset in range(n - k + 1):
        if outer.stroke_types[offset:offset + k] != inner.stroke_types:
            continue
        if all(_components_match(inner.pair_sigs[i],
                                 outer.pair_sigs[offset + i], tolerance)
               for i in range(k - 1)):
            return True
    return False


def detect_inclusions(
    sigs: Mapping[int, CharSignature],
    tolerance: float = DEFAULT_TOLERANCE,
) -> set[tuple[int, int]]:
    """All strict inclusions (sub, super) among the given signatures.

    (s, c) is emitted iff s != c and the full signature of s occurs as a
    contiguous block inside that of c.  Single-stroke characters match
    wherever their stroke type occurs, which deliberately over-generates;
    transitive reduction downstream prunes the shortcuts.

    Candidates come from an index of the signatures keyed by their
    stroke-type sequence: for each outer character, every contiguous
    window of its stroke types, at each length some shorter signature
    has, is looked up.  Since ``signature_contains`` requires the stroke
    types to equal such a window exactly, no inclusion is missed; each
    distinct candidate pair is then verified by ``signature_contains``.
    """
    if not tolerance >= 0:
        raise InputError("tolerance must be nonnegative")
    by_types: dict[tuple[str, ...], list[int]] = defaultdict(list)
    for cp, sig in sigs.items():
        by_types[sig.stroke_types].append(cp)
    lengths = sorted({len(types) for types in by_types})
    found: set[tuple[int, int]] = set()
    for super_cp, super_sig in sigs.items():
        types = super_sig.stroke_types
        n = len(types)
        candidates: set[int] = set()
        for k in lengths:
            if k >= n:  # only strictly shorter signatures can be included
                break
            for offset in range(n - k + 1):
                candidates.update(by_types.get(types[offset:offset + k], ()))
        for sub_cp in candidates:
            if signature_contains(sigs[sub_cp], super_sig, tolerance):
                found.add((sub_cp, super_cp))
    return found


def parse_stroke_spec(spec: str) -> list[Stroke]:
    """Parse the stroke-description payload of a strokes.tsv line.

    Format: ``TYPE:(x1,y1)-(x2,y2)[-(x,y)...]`` items joined by ``;``.
    """
    strokes = []
    for item in spec.strip().split(";"):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise InputError(f"malformed stroke {item!r} (missing ':')")
        type_token, _, coords = item.partition(":")
        points = []
        for pt in coords.split("-("):
            pt = pt.strip().lstrip("(").rstrip(")")
            if not pt:
                raise InputError(f"malformed coordinates in stroke {item!r}")
            try:
                xs, ys = pt.split(",")
                x, y = float(xs), float(ys)
            except ValueError:
                raise InputError(f"malformed point {pt!r} in stroke {item!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError(f"non-finite point {pt!r} in stroke {item!r}")
            points.append((x, y))
        strokes.append(Stroke(normalize_stroke_type(type_token), tuple(points)))
    if not strokes:
        raise InputError("empty stroke description")
    if len(strokes) > 1:  # pair_signature needs a direction for each stroke
        for i, s in enumerate(strokes):
            if s.start == s.end:
                raise InputError(f"stroke {i} is degenerate (coincident endpoints)")
    return strokes


def format_stroke_spec(strokes: Iterable[Stroke]) -> str:
    items = []
    for s in strokes:
        pts = "-".join(f"({x:g},{y:g})" for x, y in s.skeleton)
        items.append(f"{s.calligraphic_type}:{pts}")
    return ";".join(items)
