import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinograph.errors import InputError
from sinograph.strokesig import (
    E,
    CharSignature,
    Stroke,
    StrokePairSignature,
    char_signature,
    detect_inclusions,
    pair_signature,
    parse_stroke_spec,
    signature_contains,
)

# Endpoint coordinates of a dot stroke and a long horizontal bar arranged
# so the extrapolated line of the dot meets the bar at 1.4 dot lengths,
# 60% along the bar, with the bar 9.1 times as wide as the dot.
DOT = Stroke("D", ((4.0, 9.0), (4.5, 8.0)))
BAR = Stroke("H", ((1.97, 7.6), (6.52, 7.6)))


def test_dot_bar_reference_tuple():
    sig = pair_signature(DOT, BAR)
    expect = (1.4, 9.1, 0.0, 0.6)
    for got, want in zip(sig.as_tuple(), expect):
        assert got != E
        assert abs(got - want) <= 0.05


def test_parallel_strokes_give_e_markers():
    a = Stroke("H", ((1, 7), (9, 7)))
    b = Stroke("H", ((2, 3), (8, 3)))
    sig = pair_signature(a, b)
    assert sig.p1 == E and sig.p4 == E
    assert sig.p2 == pytest.approx(6 / 8)
    assert sig.p3 == E  # 0/0 height ratio


def test_horizontal_vertical_height_ratio_is_e():
    h = Stroke("H", ((1, 5), (9, 5)))
    v = Stroke("S", ((5, 9), (5, 1)))
    sig = pair_signature(h, v)
    assert sig.p3 == E  # horizontal stroke has zero height in the denominator
    assert sig.p2 == pytest.approx(0.0)
    assert sig.p1 != E and sig.p4 != E


def test_degenerate_stroke_rejected():
    bad = Stroke("D", ((3, 3), (3, 3)))
    with pytest.raises(InputError, match="second"):
        pair_signature(DOT, bad)
    with pytest.raises(InputError, match="\\(0, 1\\)"):
        char_signature([DOT, bad])


def _random_stroke(rng):
    while True:
        pts = ((rng.uniform(0, 10), rng.uniform(0, 10)),
               (rng.uniform(0, 10), rng.uniform(0, 10)))
        if pts[0] != pts[1]:
            return Stroke("H", pts)


def _transform(stroke, sx, sy, dx, dy):
    return Stroke(stroke.calligraphic_type,
                  tuple((x * sx + dx, y * sy + dy) for x, y in stroke.skeleton))


def _close(a, b, tol=1e-6):
    if a == E or b == E:
        return a == b
    return abs(a - b) <= tol


def test_invariance_under_translation_and_uniform_scale():
    rng = random.Random(11)
    for _ in range(200):
        s1, s2 = _random_stroke(rng), _random_stroke(rng)
        base = pair_signature(s1, s2)
        s = rng.uniform(0.2, 5.0)
        dx, dy = rng.uniform(-20, 20), rng.uniform(-20, 20)
        moved = pair_signature(_transform(s1, s, s, dx, dy),
                               _transform(s2, s, s, dx, dy))
        assert all(_close(a, b) for a, b in zip(base.as_tuple(), moved.as_tuple()))


def test_p2_p3_invariant_under_anisotropic_scale():
    rng = random.Random(12)
    for _ in range(200):
        s1, s2 = _random_stroke(rng), _random_stroke(rng)
        base = pair_signature(s1, s2)
        sx, sy = rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0)
        moved = pair_signature(_transform(s1, sx, sy, 0, 0),
                               _transform(s2, sx, sy, 0, 0))
        assert _close(base.p2, moved.p2)
        assert _close(base.p3, moved.p3)


def test_char_signature_shapes():
    single = char_signature([DOT])
    assert single.stroke_types == ("D",)
    assert single.pair_sigs == ()

    two = char_signature([DOT, BAR])
    assert len(two.stroke_types) == 2
    assert len(two.pair_sigs) == 1

    with pytest.raises(InputError):
        char_signature([])


def _chain_strokes(n, rng):
    """n strokes with generic positions (no accidental parallels)."""
    strokes = []
    for i in range(n):
        x = i * 3.0 + rng.uniform(0, 1)
        strokes.append(Stroke(rng.choice("HSPDN"),
                              ((x, rng.uniform(0, 4)),
                               (x + rng.uniform(1, 2), rng.uniform(5, 9)))))
    return strokes


def test_prefix_containment_detected():
    rng = random.Random(3)
    inner = _chain_strokes(3, rng)
    outer = inner + _chain_strokes(2, rng)
    sigs = {1: char_signature(inner), 2: char_signature(outer)}
    assert detect_inclusions(sigs, tolerance=0.0) == {(1, 2)}


def test_identity_never_emitted():
    rng = random.Random(4)
    strokes = _chain_strokes(4, rng)
    sigs = {1: char_signature(strokes), 2: char_signature(list(strokes))}
    # identical signatures in both directions are identities, not inclusions
    assert detect_inclusions(sigs, tolerance=0.0) == set()


def test_nested_synthetic_chain_transitive():
    rng = random.Random(5)
    a = _chain_strokes(2, rng)
    b = a + _chain_strokes(2, rng)
    c = b + _chain_strokes(2, rng)
    sigs = {10: char_signature(a), 20: char_signature(b), 30: char_signature(c)}
    found = detect_inclusions(sigs, tolerance=0.0)
    assert {(10, 20), (20, 30), (10, 30)} <= found


def test_single_stroke_matches_wherever_type_occurs():
    rng = random.Random(6)
    outer = _chain_strokes(3, rng)
    single = Stroke(outer[1].calligraphic_type, ((0, 0), (1, 1)))
    sigs = {1: char_signature([single]), 2: char_signature(outer)}
    assert (1, 2) in detect_inclusions(sigs, tolerance=0.0)


def test_tolerance_widens_matches():
    rng = random.Random(7)
    inner = _chain_strokes(3, rng)
    # nudge a single endpoint: translation-invariance no longer applies,
    # so the pair signatures shift slightly
    first = inner[0]
    (x1, y1), (x2, y2) = first.skeleton
    jittered = [Stroke(first.calligraphic_type, ((x1, y1), (x2 + 0.2, y2)))] \
        + inner[1:]
    outer = jittered + _chain_strokes(2, rng)
    sigs = {1: char_signature(inner), 2: char_signature(outer)}
    assert detect_inclusions(sigs, tolerance=0.0) == set()
    worst = max(abs(a - b)
                for inner_sig, outer_sig in zip(sigs[1].pair_sigs,
                                                sigs[2].pair_sigs[:2])
                for a, b in zip(inner_sig.as_tuple(), outer_sig.as_tuple()))
    assert (1, 2) in detect_inclusions(sigs, tolerance=worst + 0.01)
    with pytest.raises(InputError):
        detect_inclusions(sigs, tolerance=-0.1)


def test_containment_implies_shorter():
    rng = random.Random(8)
    sigs = {}
    for cp in range(12):
        sigs[cp] = char_signature(_chain_strokes(rng.randrange(1, 5), rng))
    for sub, sup in detect_inclusions(sigs, tolerance=0.05):
        assert len(sigs[sub]) <= len(sigs[sup])


def test_e_matches_only_e():
    flat = CharSignature(("H", "H"),
                         (pair_signature(Stroke("H", ((0, 0), (4, 0))),
                                         Stroke("H", ((0, 2), (4, 2)))),))
    crossing = CharSignature(("H", "H"),
                             (pair_signature(Stroke("H", ((0, 0), (4, 0.1))),
                                             Stroke("H", ((0, 2), (4, 2)))),))
    assert flat.pair_sigs[0].p1 == E
    assert crossing.pair_sigs[0].p1 != E
    assert not signature_contains(flat, CharSignature(("H", "H", "S"),
                                                      crossing.pair_sigs +
                                                      crossing.pair_sigs[:1]), 1e9)


def test_parse_stroke_spec_roundtrip():
    strokes = parse_stroke_spec("D:(4,9)-(4.5,8);H:(1.97,7.6)-(6.52,7.6)")
    assert [s.calligraphic_type for s in strokes] == ["D", "H"]
    assert strokes[0].skeleton == ((4.0, 9.0), (4.5, 8.0))
    with pytest.raises(InputError):
        parse_stroke_spec("ZZZ:(0,0)-(1,1)")
    with pytest.raises(InputError):
        parse_stroke_spec("H:(0,0)")


@pytest.mark.parametrize("point", ["(nan,5)", "(1,inf)", "(-inf,2)", "(NaN,NaN)"])
def test_parse_stroke_spec_rejects_non_finite(point):
    with pytest.raises(InputError, match="non-finite"):
        parse_stroke_spec(f"H:{point}-(9,5);S:(5,9)-(5,1)")


def test_nan_component_does_not_match():
    finite = StrokePairSignature(1.0, 1.0, 1.0, 1.0)
    holed = StrokePairSignature(math.nan, 1.0, 1.0, 1.0)
    for a, b in ((holed, finite), (finite, holed), (holed, holed)):
        inner = CharSignature(("H", "S"), (a,))
        outer = CharSignature(("H", "S", "P"), (b, finite))
        assert not signature_contains(inner, outer, 1e9)


def all_pairs_inclusions(sigs, tolerance):
    """Reference: test every ordered pair of distinct characters."""
    return {(sub, sup)
            for sub, sub_sig in sigs.items()
            for sup, sup_sig in sigs.items()
            if sub != sup and signature_contains(sub_sig, sup_sig, tolerance)}


TOLERANCES = (0.0, 0.05, 0.5)
# a few stroke types, so stroke-type windows recur across characters
TYPES = st.sampled_from(("H", "S", "P"))
COMPONENT = st.one_of(st.just(E), st.sampled_from((0.0, 1.0)),
                      st.floats(0.0, 4.0, allow_nan=False))


@st.composite
def pair_sigs(draw, n):
    return tuple(StrokePairSignature(*draw(st.tuples(*[COMPONENT] * 4)))
                 for _ in range(n))


@st.composite
def random_sig(draw, min_len=1, max_len=5):
    types = tuple(draw(st.lists(TYPES, min_size=min_len, max_size=max_len)))
    return CharSignature(types, draw(pair_sigs(len(types) - 1)))


@st.composite
def near_copy(draw, sig, tolerance):
    """``sig``'s pair signatures, each with at most one component moved
    to or just past the tolerance boundary, or swapped with E."""
    out = []
    for pair in sig.pair_sigs:
        comps = list(pair.as_tuple())
        i = draw(st.integers(0, 3))
        how = draw(st.sampled_from(("same", "edge", "past", "E")))
        if how == "E":
            comps[i] = 1.0 if comps[i] == E else E
        elif how != "same" and comps[i] != E:
            step = tolerance if how == "edge" else tolerance + 1e-3
            comps[i] = max(0.0, comps[i] + draw(st.sampled_from((-1, 1))) * step)
        out.append(StrokePairSignature(*comps))
    return tuple(out)


@st.composite
def inventories(draw):
    """Characters, some embedding others' blocks nearly or exactly, and
    the tolerance to mine them with."""
    tolerance = draw(st.sampled_from(TOLERANCES))
    sigs = draw(st.lists(random_sig(), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 6))):
        inner = draw(st.sampled_from(sigs))
        how = draw(st.sampled_from(("embed", "identical", "repeat")))
        if how == "identical":  # an equal-length copy: identity, not inclusion
            sigs.append(inner)
            continue
        left = draw(random_sig(0, 2))
        right = draw(random_sig(0, 2))
        blocks = [CharSignature(inner.stroke_types,
                                draw(near_copy(inner, tolerance)))]
        if how == "repeat":
            # the same stroke-type window twice, only the later one exact
            blocks.append(inner)
        types, pairs = left.stroke_types, left.pair_sigs
        for block in blocks + [right]:
            if not block.stroke_types:
                continue
            if types:  # the pair joining the previous block to this one
                pairs += draw(pair_sigs(1))
            types += block.stroke_types
            pairs += block.pair_sigs
        sigs.append(CharSignature(types, pairs))
    cps = draw(st.lists(st.integers(0, 0xFFFF), min_size=len(sigs),
                        max_size=len(sigs), unique=True))
    return dict(zip(cps, sigs)), tolerance


@settings(max_examples=300, deadline=None)
@given(inventories())
def test_indexed_detection_equals_all_pairs(case):
    sigs, tolerance = case
    assert detect_inclusions(sigs, tolerance) == \
        all_pairs_inclusions(sigs, tolerance)


def test_match_at_a_later_repeated_window():
    inner = CharSignature(("H", "S"), (StrokePairSignature(1.0, 2.0, E, 0.5),))
    wrong = StrokePairSignature(1.0, 2.2, E, 0.5)
    joint = StrokePairSignature(0.3, 0.3, 0.3, 0.3)
    outer = CharSignature(("H", "S", "H", "S"),
                          (wrong, joint) + inner.pair_sigs)
    sigs = {1: inner, 2: outer}
    assert detect_inclusions(sigs, 0.1) == {(1, 2)}
    assert detect_inclusions(sigs, 0.1) == all_pairs_inclusions(sigs, 0.1)


def test_parse_stroke_spec_rejects_degenerate_stroke_of_a_pair():
    # a lone stroke has no pair signature, so its endpoints may coincide
    assert parse_stroke_spec("D:(3,3)-(3,3)")[0].start == (3.0, 3.0)
    with pytest.raises(InputError, match="stroke 1 is degenerate"):
        parse_stroke_spec("H:(1,5)-(9,5);D:(3,3)-(4,4)-(3,3)")
