import random

import pytest

from sinograph.charstore import (
    Language,
    Reading,
    build_allograph_classes,
)
from sinograph.errors import InputError


def test_no_pairs_gives_singletons():
    classes = build_allograph_classes(set(), {1, 2, 3})
    assert len(classes) == 3
    assert all(len(c.members) == 1 for c in classes)


def test_chain_of_pairs_merges_transitively():
    classes = build_allograph_classes({(10, 11), (11, 12)}, {10, 11, 12, 13})
    by_size = sorted(classes, key=lambda c: len(c.members))
    assert sorted(by_size[0].members) == [13]
    assert sorted(by_size[1].members) == [10, 11, 12]


def test_five_member_variant_chain():
    chars = {0x7CF8, 0x2EAF, 0x2EB0, 0xF000, 0xF001}
    pairs = {(0x7CF8, 0x2EAF), (0x2EAF, 0x2EB0), (0x2EB0, 0xF000),
             (0xF000, 0xF001)}
    classes = build_allograph_classes(pairs, chars)
    assert len(classes) == 1
    assert len(classes[0].members) == 5


def test_unknown_codepoint_in_pair_rejected():
    with pytest.raises(InputError, match="U\\+0063"):
        build_allograph_classes({(0x61, 0x63)}, {0x61, 0x62})


def test_ids_deterministic_by_min_member():
    classes = build_allograph_classes({(5, 9)}, {1, 5, 9, 3})
    assert [(c.id, min(c.members)) for c in classes] == [(0, 1), (1, 3), (2, 5)]


def test_representative_prefers_frequency_then_codepoint():
    classes = build_allograph_classes({(1, 2)}, {1, 2, 3},
                                      frequencies={2: 0.9, 1: 0.1})
    merged = next(c for c in classes if len(c.members) == 2)
    assert merged.representative == 2
    singleton = next(c for c in classes if len(c.members) == 1)
    assert singleton.representative == 3
    # no frequencies: lowest codepoint wins
    classes = build_allograph_classes({(1, 2)}, {1, 2})
    assert classes[0].representative == 1


def test_partition_property_random():
    rng = random.Random(42)
    for _ in range(20):
        chars = set(rng.sample(range(1000), 60))
        pool = sorted(chars)
        pairs = {tuple(rng.sample(pool, 2)) for _ in range(25)}
        classes = build_allograph_classes(pairs, chars)
        seen = [cp for c in classes for cp in c.members]
        assert sorted(seen) == sorted(chars)  # cover, no overlap


def test_rebuild_idempotent():
    pairs = {(1, 2), (4, 5)}
    chars = {1, 2, 3, 4, 5}
    a = build_allograph_classes(pairs, chars)
    b = build_allograph_classes(pairs, chars)
    assert [(c.id, c.members) for c in a] == [(c.id, c.members) for c in b]


def test_adding_pair_never_increases_class_count():
    rng = random.Random(7)
    chars = set(range(30))
    pairs: set = set()
    prev = len(build_allograph_classes(pairs, chars))
    for _ in range(40):
        pairs.add(tuple(rng.sample(sorted(chars), 2)))
        now = len(build_allograph_classes(pairs, chars))
        assert now <= prev
        prev = now


def test_reading_invariants():
    Reading(Language.MANDARIN, ("ren2",))
    with pytest.raises(InputError):
        Reading(Language.MANDARIN, ("ma", "ka"))
    with pytest.raises(InputError):
        Reading(Language.JAPANESE_KUN, tuple("abcdefghijklm"))  # 13 syllables
    with pytest.raises(InputError):
        Reading(Language.JAPANESE_ON, ())

