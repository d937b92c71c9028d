import math
import random

import pytest

from sinograph.charstore import Language, Reading
from sinograph.errors import DataError, InputError
from sinograph.graphcore import from_edges
from sinograph.phonetics import (
    FEATURE_WEIGHTS,
    SyllableFeatures,
    class_distance,
    default_table,
    least_phonetic_chain,
    phoneticity,
    phoneticity_histogram,
    reading_distance,
    syllable_distance,
    token_distance,
)


def feat(**over):
    base = dict(consonant_place=0, consonant_voicing=0, consonant_manner=0,
                consonant_palatalization=0, vowel_frontness=0, vowel_height=0,
                vowel_rounding=0)
    base.update(over)
    return SyllableFeatures(**base)


def test_syllable_distance_identity_and_symmetry():
    a = feat(consonant_place=3, vowel_height=2)
    b = feat(consonant_place=1, vowel_height=1, vowel_rounding=1)
    assert syllable_distance(a, a) == 0.0
    assert syllable_distance(a, b) == syllable_distance(b, a)


def test_syllable_distance_single_axis_weight():
    a = feat(vowel_frontness=1)
    b = feat(vowel_frontness=2)
    assert syllable_distance(a, b) == pytest.approx(5.0)  # weight 5, unit step
    c = feat(consonant_voicing=1)
    assert syllable_distance(feat(), c) == pytest.approx(1.0)


def brute_window_distance(lang, short, long_, table):
    k = len(short)
    means = []
    for off in range(len(long_) - k + 1):
        means.append(sum(token_distance(lang, short[i], long_[off + i], table)
                         for i in range(k)) / k)
    return min(means)


def test_reading_distance_identity_and_suffix():
    kun = Language.JAPANESE_KUN
    r = Reading(kun, ("ma", "ka", "se", "ru"))
    assert reading_distance(r, r) == 0.0
    suffix = Reading(kun, ("se", "ru"))
    assert reading_distance(suffix, r) == 0.0


def test_reading_distance_matches_window_enumeration():
    table = default_table()
    kun = Language.JAPANESE_KUN
    rng = random.Random(21)
    sylls = ["ka", "se", "ru", "hi", "to", "ya", "ma", "ni", "nu", "mo"]
    for _ in range(50):
        a = tuple(rng.choice(sylls) for _ in range(rng.randrange(1, 4)))
        b = tuple(rng.choice(sylls) for _ in range(rng.randrange(len(a), 6)))
        got = reading_distance(Reading(kun, a), Reading(kun, b), table)
        want = brute_window_distance(kun, a, b, table)
        assert got == pytest.approx(want)


def test_reading_distance_language_mismatch():
    with pytest.raises(InputError):
        reading_distance(Reading(Language.MANDARIN, ("ren2",)),
                         Reading(Language.JAPANESE_ON, ("nin",)))


def test_mandarin_tone_only_difference_is_small():
    table = default_table()
    d_tone = token_distance(Language.MANDARIN, "ren2", "ren4", table)
    assert d_tone == pytest.approx(0.1 * table.max_segmental_distance())
    assert token_distance(Language.MANDARIN, "ren2", "ren2", table) == 0.0
    d_other = token_distance(Language.MANDARIN, "ren2", "ma3", table)
    assert d_tone < d_other


def test_tone_digits_ignored_outside_mandarin():
    table = default_table()
    for lang in (Language.JAPANESE_ON, Language.JAPANESE_KUN):
        assert token_distance(lang, "ren2", "ren4", table) == 0.0


def test_class_distance_shared_reading_is_zero():
    on = Language.JAPANESE_ON
    readings = {0: [Reading(on, ("nin",))], 1: [Reading(on, ("nin",))]}
    assert class_distance(readings, 0, 1, on) == 0.0


def test_class_distance_unknown_when_readingless():
    on = Language.JAPANESE_ON
    readings = {0: [Reading(on, ("nin",))],
                1: [Reading(Language.MANDARIN, ("ren2",))]}
    assert class_distance(readings, 0, 1, on) is None  # no ja_on reading
    assert class_distance(readings, 0, 2, on) is None  # no reading at all


def test_class_distance_is_min_over_cross_product():
    on = Language.JAPANESE_ON
    sylls = {0: [("ka",), ("nin",)], 1: [("sei",), ("nin",)]}
    readings = {cid: [Reading(on, s) for s in ss] for cid, ss in sylls.items()}
    got = class_distance(readings, 0, 1, on)
    want = min(reading_distance(ra, rb)
               for ra in readings[0] for rb in readings[1])
    assert got == pytest.approx(want)
    assert got == 0.0  # both classes can say "nin"


def test_phoneticity_normalization_endpoints(monkeypatch):
    on = Language.JAPANESE_ON
    g = from_edges([(1, 2), (3, 4), (5, 6)])
    fake = {(1, 2): 0.0, (3, 4): 2.0, (5, 6): 4.0}
    monkeypatch.setattr("sinograph.phonetics.class_distance",
                        lambda readings, a, b, lang, table=None: fake[(a, b)])
    phoneticity(g, {}, on)
    assert g.edge(1, 2).phi["ja_on"] == pytest.approx(1.0)
    assert g.edge(3, 4).phi["ja_on"] == pytest.approx(0.5)
    assert g.edge(5, 6).phi["ja_on"] == pytest.approx(0.0)
    assert g.meta["phi_dmax_ja_on"] == repr(4.0)


def test_phoneticity_unknown_propagates_and_all_unknown_errors():
    on = Language.JAPANESE_ON
    readings = {1: [Reading(on, ("nin",))], 2: [Reading(on, ("nin",))], 3: []}
    g = from_edges([(1, 2), (1, 3)])
    phoneticity(g, readings, on)
    assert g.edge(1, 2).phi["ja_on"] == 1.0
    assert "ja_on" not in g.edge(1, 3).phi

    g2 = from_edges([(1, 2)])
    with pytest.raises(DataError):
        phoneticity(g2, {1: [], 2: []}, on)


def random_phi_dag(rng, n=12):
    g = from_edges([], nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                g.add_edge(i, j)
                if rng.random() < 0.85:
                    g.edge(i, j).phi["ja_on"] = rng.random()
    return g


def brute_force_chain(g, start, lang):
    chain = [start]
    node = start
    while True:
        best = None
        for p in sorted(g.predecessors(node)):
            phi = g.edge(p, node).phi.get(lang)
            if phi is None:
                continue
            if best is None or phi < best[0] or (phi == best[0] and p < best[1]):
                best = (phi, p)
        if best is None:
            return chain
        chain.append(best[1])
        node = best[1]


def test_chain_matches_exhaustive_argmin():
    rng = random.Random(99)
    on = Language.JAPANESE_ON
    for _ in range(100):
        g = random_phi_dag(rng)
        for start in g.nodes:
            assert least_phonetic_chain(g, start, on) == \
                brute_force_chain(g, start, "ja_on")


def test_chain_properties():
    on = Language.JAPANESE_ON
    rng = random.Random(5)
    for _ in range(30):
        g = random_phi_dag(rng)
        start = rng.choice(sorted(g.nodes))
        chain = least_phonetic_chain(g, start, on)
        assert len(set(chain)) == len(chain)  # pairwise distinct
        for a, b in zip(chain[1:], chain):
            assert g.has_edge(a, b)
    source = from_edges([(1, 2)])
    assert least_phonetic_chain(source, 1, on) == [1]
    with pytest.raises(DataError):
        least_phonetic_chain(source, 99, on)


def test_chain_invariant_under_distance_rescaling(monkeypatch):
    on = Language.JAPANESE_ON
    rng = random.Random(17)
    for trial in range(20):
        g = from_edges([], nodes=range(10))
        dists = {}
        for i in range(10):
            for j in range(i + 1, 10):
                if rng.random() < 0.4:
                    g.add_edge(i, j)
                    dists[(i, j)] = rng.uniform(0, 5)
        if not dists:
            continue
        monkeypatch.setattr("sinograph.phonetics.class_distance",
                            lambda s, a, b, l, table=None: dists[(a, b)])
        phoneticity(g, {}, on)
        chains = {n: least_phonetic_chain(g, n, on) for n in g.nodes}

        g2 = from_edges([], nodes=range(10))
        for e in dists:
            g2.add_edge(*e)
        scale = rng.uniform(0.1, 10)
        monkeypatch.setattr("sinograph.phonetics.class_distance",
                            lambda s, a, b, l, table=None: dists[(a, b)] * scale)
        phoneticity(g2, {}, on)
        for e in dists:
            assert g2.edge(*e).phi["ja_on"] == pytest.approx(
                g.edge(*e).phi["ja_on"])
        for n in g2.nodes:
            assert least_phonetic_chain(g2, n, on) == chains[n]


def test_histogram():
    on = Language.JAPANESE_ON
    g = from_edges([(1, 2), (3, 4)])
    g.edge(1, 2).phi["ja_on"] = 1.0
    g.edge(3, 4).phi["ja_on"] = 1.0
    edges, counts = phoneticity_histogram(g, on, bins=4)
    assert counts == [0, 0, 0, 2]  # 1.0 lands in the last bin
    assert edges[0] == 0.0 and edges[-1] == 1.0

    g.edge(3, 4).phi["ja_on"] = 0.1
    _, counts = phoneticity_histogram(g, on, bins=4)
    assert counts == [1, 0, 0, 1]

    empty = from_edges([(1, 2)])
    with pytest.raises(DataError):
        phoneticity_histogram(empty, on)
