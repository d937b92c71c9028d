import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinograph.charstore import AllographClass, CharacterStore
from sinograph.errors import DataError, InputError
from sinograph.graphcore import from_edges
from sinograph.semantics import (
    SynsetStore,
    annotate_classes,
    annotate_semanticity,
    count_f1,
    count_f2,
    most_semantic_chain,
    radical_agreement,
    semanticity,
)


def cls(cid, *cps):
    return AllographClass(cid, frozenset(cps), min(cps))


def toy_store(synsets, relations):
    store = SynsetStore()
    for sid, lemmas in synsets.items():
        store.add_synset(sid, lemmas)
    for src, typ, dst in relations:
        store.add_relation(src, typ, dst)
    return store


def test_store_validation():
    store = SynsetStore()
    store.add_synset("a", ["word"])
    with pytest.raises(InputError):
        store.add_synset("a", ["other"])
    with pytest.raises(InputError):
        store.add_synset("b", [])
    with pytest.raises(InputError):
        store.add_relation("a", "hyponymy", "missing")
    with pytest.raises(DataError, match="^unknown synset 'x'$"):
        SynsetStore().lemmas("x")


def test_annotate_by_member_char_in_lemma():
    store = toy_store({"measles": ["風疹", "はしか"]}, [])
    rash = cls(0, ord("疹"))
    got = annotate_classes(store, {}, [rash])
    assert got == {0: {"measles"}}


def test_annotate_by_gloss_word_match():
    store = toy_store({"measles": ["はしか"]}, [])
    rash = cls(0, ord("Z"))  # member char occurs in no lemma
    got = annotate_classes(store, {ord("Z"): ["はしか"]}, [rash])
    assert got == {0: {"measles"}}


def test_annotate_unmatched_class_left_out():
    store = toy_store({"s": ["word"]}, [])
    got = annotate_classes(store, {}, [cls(0, ord("Q"))])
    assert got == {}


def test_annotate_multiple_synsets_sharing_lemma_char():
    store = toy_store({"s1": ["X木"], "s2": ["木Y"]}, [])
    got = annotate_classes(store, {}, [cls(0, ord("木"))])
    assert got == {0: {"s1", "s2"}}


def test_count_f1_worked_example():
    # "Greenland spar" word contains the sub member, "mineral" word the
    # super member, one hyponymy relation between them -> one unit
    store = toy_store(
        {"greenland_spar": ["冰晶石"], "mineral": ["礦物"]},
        [("greenland_spar", "hyponymy", "mineral")],
    )
    sub = cls(0, ord("石"))
    sup = cls(1, ord("礦"))
    assert count_f1(sub, sup, store) == 1
    assert count_f1(sup, sub, store) == 0  # direction matters
    assert count_f2(sub, sup, store) == 0  # no two-step path


def test_count_f1_empty_relations():
    store = toy_store({"a": ["石"]}, [])
    assert count_f1(cls(0, ord("石")), cls(1, ord("礦")), store) == 0


def test_count_f1_two_instances():
    store = toy_store(
        {"a1": ["石头"], "a2": ["石器"], "b": ["礦物"]},
        [("a1", "hyponymy", "b"), ("a2", "meronymy", "b")],
    )
    assert count_f1(cls(0, ord("石")), cls(1, ord("礦")), store) == 2


def test_count_f2_chain_and_diamond():
    chain = toy_store(
        {"a": ["石头"], "m": ["中介"], "b": ["礦物"]},
        [("a", "hyponymy", "m"), ("m", "hyponymy", "b")],
    )
    sub, sup = cls(0, ord("石")), cls(1, ord("礦"))
    assert count_f2(sub, sup, chain) == 1
    assert count_f1(sub, sup, chain) == 0

    diamond = toy_store(
        {"a": ["石头"], "m1": ["x"], "m2": ["y"], "b": ["礦物"]},
        [("a", "t", "m1"), ("a", "t", "m2"),
         ("m1", "t", "b"), ("m2", "t", "b")],
    )
    assert count_f2(sub, sup, diamond) == 2


def brute_force_counts(sub, sup, store):
    """Direct tuple enumeration of the one- and two-step counts."""
    sub_chars = {chr(cp) for cp in sub.members}
    sup_chars = {chr(cp) for cp in sup.members}
    f1 = 0
    for rel in store.relations:
        for w1 in store.lemmas(rel.source):
            for w2 in store.lemmas(rel.target):
                for s in sub_chars:
                    for c in sup_chars:
                        if s in w1 and c in w2:
                            f1 += 1
    f2 = 0
    for r1 in store.relations:
        for r2 in store.relations:
            if r1.target != r2.source:
                continue
            for w1 in store.lemmas(r1.source):
                for w2 in store.lemmas(r2.target):
                    for s in sub_chars:
                        for c in sup_chars:
                            if s in w1 and c in w2:
                                f2 += 1
    return f1, f2


def test_counts_match_brute_force_on_random_toy_wordnets():
    rng = random.Random(31)
    alphabet = [chr(0x4E00 + i) for i in range(12)]
    for _ in range(25):
        n_syn = rng.randrange(2, 8)
        synsets = {}
        for i in range(n_syn):
            words = ["".join(rng.choice(alphabet)
                             for _ in range(rng.randrange(1, 4)))
                     for _ in range(rng.randrange(1, 4))]
            synsets[f"s{i}"] = words
        ids = sorted(synsets)
        relations = []
        for _ in range(rng.randrange(0, 8)):
            relations.append((rng.choice(ids), rng.choice("tuv"),
                              rng.choice(ids)))
        store = toy_store(synsets, set(relations))
        sub = cls(0, *[ord(rng.choice(alphabet)) for _ in range(rng.randrange(1, 3))])
        sup = cls(1, *[ord(rng.choice(alphabet)) for _ in range(rng.randrange(1, 3))])
        f1_want, f2_want = brute_force_counts(sub, sup, store)
        assert count_f1(sub, sup, store) == f1_want
        assert count_f2(sub, sup, store) == f2_want


# The per-edge relation scan that the sparse products replaced, kept as
# the oracle for them.

def oracle_char_word_pairs(store, synset_id, members):
    chars = [chr(cp) for cp in members]
    return sum(1 for w in store.lemmas(synset_id) for ch in chars if ch in w)


def oracle_f1(sub, sup, store):
    total = 0
    for rel in store.relations:
        left = oracle_char_word_pairs(store, rel.source, sub.members)
        if not left:
            continue
        total += left * oracle_char_word_pairs(store, rel.target, sup.members)
    return total


def oracle_f2(sub, sup, store):
    total = 0
    for first in store.relations:
        left = oracle_char_word_pairs(store, first.source, sub.members)
        if not left:
            continue
        for second in store.relations:
            if second.source == first.target:
                total += left * oracle_char_word_pairs(store, second.target,
                                                       sup.members)
    return total


ALPHABET = "石礦中介物"


@st.composite
def semantic_cases(draw):
    """Small synset stores over a five-character alphabet, allographic
    classes over the same characters, an inclusion graph on the classes
    and a radical map; the store may be absent and the map empty."""
    word = st.text(alphabet=ALPHABET, min_size=1, max_size=4)
    n_syn = draw(st.integers(1, 6))
    synsets = {f"s{i}": draw(st.lists(word, min_size=1, max_size=4))
               for i in range(n_syn)}
    ids = st.sampled_from(sorted(synsets))
    relations = draw(st.lists(st.tuples(ids, st.sampled_from("tu"), ids),
                              max_size=10))
    chars = draw(st.lists(st.sampled_from(ALPHABET), min_size=2, max_size=5,
                          unique=True))
    cuts = draw(st.lists(st.booleans(), min_size=len(chars) - 1,
                         max_size=len(chars) - 1))
    groups, current = [], [ord(chars[0])]
    for ch, cut in zip(chars[1:], cuts):
        if cut:
            groups.append(current)
            current = []
        current.append(ord(ch))
    groups.append(current)
    classes = [cls(i, *members) for i, members in enumerate(groups)]
    pairs = [(a, b) for a in range(len(classes)) for b in range(len(classes))
             if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) \
        if pairs else []
    radicals = draw(st.dictionaries(st.sampled_from([ord(c) for c in chars]),
                                    st.integers(1, 3)))
    with_store = draw(st.booleans())
    return synsets, relations, classes, edges, radicals, with_store


@settings(max_examples=150, deadline=None)
@given(semantic_cases())
@example((  # allographs; one character in several lemmas of one synset;
    # two relation types between one pair; a self-relation and a cycle
    # through the source; a synset without relations
    {"a": ["石头", "石器", "介石"], "m": ["中"], "b": ["礦物", "物"],
     "lone": ["石礦"]},
    [("a", "t", "b"), ("a", "u", "b"), ("a", "t", "a"), ("a", "t", "m"),
     ("m", "t", "a"), ("m", "u", "b"), ("b", "t", "b")],
    [cls(0, ord("石"), ord("介")), cls(1, ord("礦"), ord("物")),
     cls(2, ord("中"))],
    [(0, 1), (2, 1), (0, 2)],
    {ord("石"): 1, ord("礦"): 1, ord("物"): 2},
    True,
))
@example(({"a": ["石"]}, [("a", "t", "a")],
          [cls(0, ord("石")), cls(1, ord("礦"))], [(0, 1)], {}, False))
def test_annotate_semanticity_matches_relation_scan(case):
    synsets, relations, classes, edges, radicals, with_store = case
    store = toy_store(synsets, relations) if with_store else None
    charstore = CharacterStore()
    for c in classes:
        charstore.add(c)
    got = from_edges(edges, nodes=range(len(classes)))
    annotate_semanticity(got, charstore, store, radicals)

    want = from_edges(edges, nodes=range(len(classes)))
    f1, f2, r = {}, {}, {}
    for a, b in edges:
        sub, sup = classes[a], classes[b]
        if store is not None:
            f1[(a, b)] = oracle_f1(sub, sup, store)
            f2[(a, b)] = oracle_f2(sub, sup, store)
            assert count_f1(sub, sup, store) == f1[(a, b)]
            assert count_f2(sub, sup, store) == f2[(a, b)]
        if radicals:
            r[(a, b)] = radical_agreement(sub, sup, radicals)
    semanticity(want, f1, f2, r)

    assert got.meta == want.meta
    for key in edges:
        g_edge, w_edge = got.edge(*key), want.edge(*key)
        assert (g_edge.f1, g_edge.f2, g_edge.r, g_edge.s_raw, g_edge.s) == \
            (w_edge.f1, w_edge.f2, w_edge.r, w_edge.s_raw, w_edge.s)


def test_radical_agreement_cases():
    every = cls(0, 0x6BCF)
    nurture = cls(1, 0x6BD3)
    rads = {0x6BCF: 80, 0x6BD3: 80}
    assert radical_agreement(every, nurture, rads) == 1.0
    assert radical_agreement(every, nurture, {0x6BCF: 80, 0x6BD3: 85}) == 0.0
    two = cls(0, 1, 2)
    one = cls(1, 3)
    assert radical_agreement(two, one, {1: 9, 2: 10, 3: 9}) == 0.5
    # missing radicals never agree
    assert radical_agreement(two, one, {1: 9}) == 0.0


def test_semanticity_formula_and_normalization():
    g = from_edges([(0, 1), (2, 3)])
    semanticity(g, f1={(0, 1): 1}, f2={}, r={(0, 1): 1.0})
    raw = g.edge(0, 1).s_raw
    assert raw == pytest.approx(0.5 * math.log(2) + 0.25, abs=1e-12)
    assert g.edge(0, 1).s == 1.0  # single nonzero edge normalizes to itself
    assert g.edge(2, 3).s == 0.0
    assert float(g.meta["s_raw_max"]) == pytest.approx(raw)


def test_semanticity_all_zero():
    g = from_edges([(0, 1)])
    semanticity(g)
    assert g.edge(0, 1).s_raw == 0.0
    assert g.edge(0, 1).s == 0.0


def test_semanticity_refuses_an_overflowing_raw_score():
    # 1e308 * log(11) is inf, and inf / inf would make S nan
    g = from_edges([(0, 1), (2, 3)])
    with pytest.raises(DataError):
        semanticity(g, {(0, 1): 10}, coefficients=(1e308, 0.0, 0.0))


def test_semanticity_monotone_in_counts():
    def raw(f1, f2, r):
        g = from_edges([(0, 1)])
        semanticity(g, {(0, 1): f1}, {(0, 1): f2}, {(0, 1): r})
        return g.edge(0, 1).s_raw

    base = raw(1, 1, 0.5)
    assert raw(2, 1, 0.5) > base
    assert raw(1, 2, 0.5) > base
    assert raw(1, 1, 0.9) > base
    for f1, f2 in itertools.product(range(4), repeat=2):
        assert raw(f1 + 1, f2, 0.3) > raw(f1, f2, 0.3)


def random_s_dag(rng, n=10):
    g = from_edges([], nodes=range(n))
    f1 = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                g.add_edge(i, j)
                f1[(i, j)] = rng.randrange(0, 6)
    semanticity(g, f1)
    return g


def brute_force_argmax_chain(g, start):
    chain = [start]
    node = start
    while True:
        best = None
        for p in sorted(g.predecessors(node)):
            s = g.edge(p, node).s
            if best is None or s > best[0] or (s == best[0] and p < best[1]):
                best = (s, p)
        if best is None:
            return chain
        chain.append(best[1])
        node = best[1]


def test_most_semantic_chain_matches_exhaustive_argmax():
    rng = random.Random(77)
    for _ in range(100):
        g = random_s_dag(rng)
        for start in g.nodes:
            assert most_semantic_chain(g, start) == \
                brute_force_argmax_chain(g, start)


def test_chain_stops_at_source_and_zero_s_is_eligible():
    g = from_edges([(0, 1)])
    semanticity(g)  # S = 0 everywhere
    assert most_semantic_chain(g, 1) == [1, 0]
    assert most_semantic_chain(g, 0) == [0]


def test_all_zero_ties_follow_lowest_id():
    g = from_edges([(3, 9), (1, 9), (2, 9)])
    semanticity(g)
    assert most_semantic_chain(g, 9) == [9, 1]


def test_chain_invariant_under_increasing_transform():
    rng = random.Random(13)
    for _ in range(20):
        g = random_s_dag(rng)
        chains = {n: most_semantic_chain(g, n) for n in g.nodes}
        for a, b in g.edges():  # strictly increasing transform of S
            g.edge(a, b).s = math.tanh(2.0 * g.edge(a, b).s) + 0.1
        for n in g.nodes:
            assert most_semantic_chain(g, n) == chains[n]


def test_chain_requires_semanticity():
    g = from_edges([(0, 1)])
    with pytest.raises(DataError):
        most_semantic_chain(g, 1)
    with pytest.raises(DataError):
        most_semantic_chain(g, 42)
