import functools
import math
import random
import re
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinograph.charstore import Language, Reading
from sinograph.errors import DataError, InputError
from sinograph.graphcore import from_edges
from sinograph.phonetics import (
    FEATURE_WEIGHTS,
    TONE_PENALTY_FACTOR,
    FeatureTable,
    SyllableFeatures,
    class_distance,
    least_phonetic_chain,
    phoneticity,
    phoneticity_histogram,
    reading_distance,
    strip_tone,
    syllable_distance,
    token_distance,
)


def feat(**over):
    base = dict(consonant_place=0, consonant_voicing=0, consonant_manner=0,
                consonant_palatalization=0, vowel_frontness=0, vowel_height=0,
                vowel_rounding=0)
    base.update(over)
    return SyllableFeatures(**base)


BUNDLED_TABLE = resources.files("sinograph").joinpath(
    "data/phoneme_features.tsv").read_text(encoding="utf-8")


def test_feature_table_skips_blank_lines(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text(BUNDLED_TABLE.replace("\nC\tb\t", "\n  \n\t\nC\tb\t", 1),
                    encoding="utf-8")
    table = FeatureTable.load(str(path))
    assert table.consonants == FeatureTable.load().consonants


def test_feature_table_without_null_phonemes_names_the_file(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text(BUNDLED_TABLE.replace("C\t-\t", "C\t_\t", 1),
                    encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: feature "
                       f"table must define the '-' null phonemes$"):
        FeatureTable.load(str(path))


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
    table = FeatureTable.load()
    kun = Language.JAPANESE_KUN
    r = Reading(kun, ("ma", "ka", "se", "ru"))
    assert reading_distance(r, r, table) == 0.0
    suffix = Reading(kun, ("se", "ru"))
    assert reading_distance(suffix, r, table) == 0.0


def test_reading_distance_matches_window_enumeration():
    table = FeatureTable.load()
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
                         Reading(Language.JAPANESE_ON, ("nin",)),
                         FeatureTable.load())


def test_mandarin_tone_only_difference_is_small():
    table = FeatureTable.load()
    d_tone = token_distance(Language.MANDARIN, "ren2", "ren4", table)
    assert d_tone == pytest.approx(0.1 * table.max_segmental_distance())
    assert token_distance(Language.MANDARIN, "ren2", "ren2", table) == 0.0
    d_other = token_distance(Language.MANDARIN, "ren2", "ma3", table)
    assert d_tone < d_other


def test_tone_digits_ignored_outside_mandarin():
    table = FeatureTable.load()
    for lang in (Language.JAPANESE_ON, Language.JAPANESE_KUN):
        assert token_distance(lang, "ren2", "ren4", table) == 0.0


def test_class_distance_shared_reading_is_zero():
    on = Language.JAPANESE_ON
    readings = {0: [Reading(on, ("nin",))], 1: [Reading(on, ("nin",))]}
    assert class_distance(readings, 0, 1, on, FeatureTable.load()) == 0.0


def test_class_distance_unknown_when_readingless():
    on = Language.JAPANESE_ON
    readings = {0: [Reading(on, ("nin",))],
                1: [Reading(Language.MANDARIN, ("ren2",))]}
    table = FeatureTable.load()
    assert class_distance(readings, 0, 1, on, table) is None  # no ja_on reading
    assert class_distance(readings, 0, 2, on, table) is None  # no reading at all


def test_class_distance_is_min_over_cross_product():
    on = Language.JAPANESE_ON
    sylls = {0: [("ka",), ("nin",)], 1: [("sei",), ("nin",)]}
    readings = {cid: [Reading(on, s) for s in ss] for cid, ss in sylls.items()}
    table = FeatureTable.load()
    got = class_distance(readings, 0, 1, on, table)
    want = min(reading_distance(ra, rb, table)
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
            assert (a, b) in g.edges()
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


# -- the distances before the table memoised them, kept as the oracle --

def oracle_features(table, token):
    body = strip_tone(token)[0]
    onset = "-"
    for cand in sorted(table.consonants, key=len, reverse=True):
        if cand != "-" and body.startswith(cand):
            onset = cand
            body = body[len(cand):]
            break
    vowel = next((ch for ch in body if ch in table.vowels and ch != "-"), "-")
    return SyllableFeatures(*table.consonants[onset], *table.vowels[vowel])


@functools.cache  # one value per table; recomputed per token pair it is slow
def oracle_max_segmental_distance(table):
    wc, wv = FEATURE_WEIGHTS[:4], FEATURE_WEIGHTS[4:]
    best_c = max(sum((w * (a - b)) ** 2 for w, a, b in zip(wc, ca, cb))
                 for ca in table.consonants.values()
                 for cb in table.consonants.values())
    best_v = max(sum((w * (a - b)) ** 2 for w, a, b in zip(wv, va, vb))
                 for va in table.vowels.values() for vb in table.vowels.values())
    return math.sqrt(best_c + best_v)


def oracle_token_distance(language, a, b, table):
    d = syllable_distance(oracle_features(table, a), oracle_features(table, b))
    if language is Language.MANDARIN and strip_tone(a)[1] != strip_tone(b)[1]:
        d += TONE_PENALTY_FACTOR * oracle_max_segmental_distance(table)
    return d


def oracle_reading_distance(r1, r2, table):
    short, long_ = sorted((r1.syllables, r2.syllables), key=len)
    k = len(short)
    return min(sum(oracle_token_distance(r1.language, short[i], long_[off + i],
                                         table) for i in range(k)) / k
               for off in range(len(long_) - k + 1))


def oracle_class_distance(readings, class_a, class_b, language, table):
    pairs = [(ra, rb) for ra in readings.get(class_a, ())
             for rb in readings.get(class_b, ())
             if ra.language is language and rb.language is language]
    if not pairs:
        return None
    return min(oracle_reading_distance(ra, rb, table) for ra, rb in pairs)


# One table for every example and language, so each memo entry is read
# back by later calls, in other languages too.
SHARED_TABLE = FeatureTable.load()
CMN, ON, KUN = Language.MANDARIN, Language.JAPANESE_ON, Language.JAPANESE_KUN

# tone digits on any language's token, so "ren2" is met in all three
TOKENS = st.builds(lambda body, tone: body + tone,
                   st.sampled_from(["ren", "nin", "ma", "shi", "zhong", "kan",
                                    "ka", "Ka", "se", "ru", "a", "o"]),
                   st.sampled_from(["", "1", "2", "4"]))


@st.composite
def class_readings(draw):
    """Readings of up to four classes in any of the three languages; kun
    readings have one to four syllables."""
    readings = {}
    for cid in range(draw(st.integers(1, 4))):
        readings[cid] = [
            Reading(lang, tuple(draw(st.lists(
                TOKENS, min_size=1, max_size=4 if lang is KUN else 1))))
            for lang in draw(st.lists(st.sampled_from(list(Language)),
                                      max_size=3))]
    return readings


@settings(max_examples=200, deadline=None)
@given(class_readings())
@example({0: [Reading(CMN, ("ren2",)), Reading(ON, ("ren4",))],
          1: [Reading(CMN, ("ren4",)), Reading(ON, ("ren2",))]})
@example({0: [Reading(KUN, ("ka", "se2"))],
          1: [Reading(KUN, ("ma", "ka", "se4", "ru"))],
          2: [Reading(KUN, ("se4",)), Reading(CMN, ("se2",))]})
def test_memoised_distances_equal_the_unmemoised_oracle(readings):
    table = SHARED_TABLE
    every = [r for rs in readings.values() for r in rs]
    tokens = sorted({t for r in every for t in r.syllables})
    for lang in Language:
        for a in tokens:
            for b in tokens:
                assert token_distance(lang, a, b, table) == \
                    oracle_token_distance(lang, a, b, table)
        same = [r for r in every if r.language is lang]
        for r1 in same:
            for r2 in same:
                assert reading_distance(r1, r2, table) == \
                    oracle_reading_distance(r1, r2, table)
        for ca in readings:
            for cb in readings:
                assert class_distance(readings, ca, cb, lang, table) == \
                    oracle_class_distance(readings, ca, cb, lang, table)
    assert table.max_segmental_distance() == oracle_max_segmental_distance(table)
