import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinograph.charstore import Language
from sinograph.errors import DataError, InputError
from sinograph.features import (
    PROVENANCE_BASELINE,
    PROVENANCE_CHAIN,
    STRATEGIES,
    Vocabulary,
    _l2_normalize,
    augment,
    augment_strategy1,
    augment_strategy2,
    baseline_vectors,
    semantic_chains,
)
from sinograph.graphcore import from_edges
from sinograph.phonetics import least_phonetic_chain
from sinograph.semantics import most_semantic_chain, semanticity

ON = Language.JAPANESE_ON


def test_baseline_relative_frequencies():
    vocab, vecs = baseline_vectors(["aa b"], {ord("a"): 0, ord("b"): 1},
                                   min_count=1, normalize=False)
    assert vecs[0] == {0: pytest.approx(2 / 3), 1: pytest.approx(1 / 3)}
    assert vocab.provenance == {0: PROVENANCE_BASELINE, 1: PROVENANCE_BASELINE}


def test_baseline_class_max_rule():
    # variants x, y in one class: weight is the max member frequency
    vocab, vecs = baseline_vectors(["xy"], {ord("x"): 7, ord("y"): 7},
                                   min_count=1, normalize=False)
    assert vecs[0] == {7: pytest.approx(0.5)}


def test_baseline_min_count_filters_and_errors():
    texts = ["aaa b", "aaa b"]
    vocab, vecs = baseline_vectors(texts, {ord("a"): 0, ord("b"): 1},
                                   min_count=3)
    assert vocab.ids == {0}
    assert all(set(v) <= {0} for v in vecs)
    with pytest.raises(DataError):
        baseline_vectors(texts, {ord("a"): 0, ord("b"): 1}, min_count=100)
    with pytest.raises(InputError):
        baseline_vectors([], {})


def test_baseline_empty_doc_zero_vector():
    vocab, vecs = baseline_vectors(["aa", "!!"], {ord("a"): 0}, min_count=1)
    assert vecs[1] == {}


def test_baseline_l2_normalized():
    _, vecs = baseline_vectors(["aab"], {ord("a"): 0, ord("b"): 1},
                               min_count=1)
    assert math.hypot(*vecs[0].values()) == pytest.approx(1.0)


def _chain_graph():
    """0 <- 1 <- 2 with S = 0.8 then 0.4."""
    g = from_edges([(1, 0), (2, 1)])
    semanticity(g)
    g.edge(1, 0).s = 0.8
    g.edge(2, 1).s = 0.4
    return g


def test_strategy1_worked_example():
    g = _chain_graph()
    vocab, _ = baseline_vectors(["aa"], {ord("a"): 0}, min_count=1)
    vocab2, out = augment_strategy1(g, vocab, [{0: 0.5}], normalize=False)
    assert out[0][1] == pytest.approx(0.4, abs=1e-9)
    assert out[0][2] == pytest.approx(0.1, abs=1e-9)
    assert out[0][0] == 0.5
    assert vocab2.provenance[1] == PROVENANCE_CHAIN
    assert vocab2.provenance[2] == PROVENANCE_CHAIN
    assert vocab2.provenance[0] == PROVENANCE_BASELINE


def test_strategy1_zero_s_identity():
    g = from_edges([(1, 0), (2, 1)])
    semanticity(g)  # all S = 0
    vocab, vecs = baseline_vectors(["aa", "a"], {ord("a"): 0}, min_count=1)
    vocab2, out = augment_strategy1(g, vocab, vecs)
    assert out == vecs
    assert vocab2.provenance == vocab.provenance


def test_strategy1_existing_vocab_member_gets_increment():
    g = _chain_graph()
    vocab, _ = baseline_vectors(["ab"], {ord("a"): 0, ord("b"): 1},
                                min_count=1, normalize=False)
    # class 1 is already a baseline feature; augmentation adds to it
    before = {0: 0.5, 1: 0.25}
    vocab2, out = augment_strategy1(g, vocab, [before], normalize=False)
    # class 0's chain deposits 0.8*0.5 on node 1 and 0.5*0.4*0.5 on node 2;
    # class 1's own chain deposits 0.4*0.25 on node 2
    assert out[0][1] == pytest.approx(0.25 + 0.8 * 0.5)
    assert out[0][2] == pytest.approx(0.5 * 0.4 * 0.5 + 0.4 * 0.25)
    assert vocab2.provenance[1] == PROVENANCE_BASELINE  # size unchanged
    assert len(vocab2) == len(vocab) + 1  # only class 2 is new


def test_strategy2_unknown_phi_reduces_to_strategy1():
    g = _chain_graph()  # no phi anywhere
    vocab, vecs = baseline_vectors(["aa"], {ord("a"): 0}, min_count=1)
    s1_vocab, s1 = augment_strategy1(g, vocab, vecs, normalize=False)
    s2_vocab, s2 = augment_strategy2(g, vocab, vecs, ON, normalize=False)
    assert s1 == s2
    assert s1_vocab.provenance == s2_vocab.provenance


def test_strategy2_phonetic_contribution():
    g = from_edges([(1, 0)])
    semanticity(g)
    g.edge(1, 0).phi["ja_on"] = 1.0
    vocab, _ = baseline_vectors(["aa"], {ord("a"): 0}, min_count=1)
    _, out = augment_strategy2(g, vocab, [{0: 0.5}], ON, normalize=False)
    assert out[0][1] == pytest.approx(0.5)  # phi 1.0 * w 0.5 at depth 1


def test_strategy2_shared_chain_superposition():
    g = from_edges([(1, 0)])
    semanticity(g, f1={(1, 0): 3})
    g.edge(1, 0).phi["ja_on"] = 0.5
    s = g.edge(1, 0).s
    vocab, _ = baseline_vectors(["aa"], {ord("a"): 0}, min_count=1)
    _, out = augment_strategy2(g, vocab, [{0: 1.0}], ON, normalize=False)
    assert out[0][1] == pytest.approx(s * 1.0 + 0.5 * 1.0)


def test_strategy2_phonetic_only_flag():
    g = _chain_graph()
    g.edge(1, 0).phi["ja_on"] = 0.25
    vocab, _ = baseline_vectors(["aa"], {ord("a"): 0}, min_count=1)
    _, out = augment_strategy2(g, vocab, [{0: 1.0}], ON,
                               include_semantic=False, normalize=False)
    assert out[0][1] == pytest.approx(0.25)
    assert 2 not in out[0]  # semantic chain beyond the phi edge not applied


def test_added_mass_bounded():
    rng = random.Random(23)
    for _ in range(20):
        g = from_edges([], nodes=range(8))
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.4:
                    g.add_edge(i, j)
        semanticity(g, f1={e: rng.randrange(0, 4) for e in g.edges()})
        vecs = [{n: rng.random() for n in rng.sample(range(8), 3)}]
        vocab = Vocabulary({n: PROVENANCE_BASELINE for n in range(8)})
        chains = semantic_chains(g, vocab.ids)
        _, out = augment_strategy1(g, vocab, vecs, normalize=False)
        added = sum(out[0].values()) - sum(vecs[0].values())
        bound = sum(w * sum(1.0 / i for i in range(1, len(chains[c])))
                    for c, w in vecs[0].items() if len(chains[c]) > 1)
        assert added >= 0
        assert added <= bound + 1e-9


def test_vocabulary_growth_matches_chain_membership():
    rng = random.Random(29)
    for _ in range(20):
        g = from_edges([], nodes=range(10))
        f1 = {}
        for i in range(10):
            for j in range(i + 1, 10):
                if rng.random() < 0.3:
                    g.add_edge(i, j)
                    f1[(i, j)] = rng.randrange(0, 5)
        semanticity(g, f1)
        base_ids = set(rng.sample(range(10), 4))
        vocab, vecs = baseline_vectors(
            ["".join(chr(0x100 + cid) for cid in base_ids)],
            {0x100 + cid: cid for cid in range(10)}, min_count=1)
        vocab2, _ = augment_strategy1(g, vocab, vecs)
        chains = semantic_chains(g, base_ids)
        # brute force: replay the addition rule
        expected = set()
        for cid in base_ids:
            chain = chains[cid]
            w = vecs[0].get(cid, 0.0)
            for i in range(1, len(chain)):
                gain = (1 / i) * g.edge(chain[i], chain[i - 1]).s * w
                if gain != 0:
                    expected.add(chain[i])
        assert vocab2.added_ids() == expected - vocab.ids


def test_deterministic_outputs():
    g = _chain_graph()
    vocab, vecs = baseline_vectors(["aab", "ba"],
                                   {ord("a"): 0, ord("b"): 1}, min_count=1)
    a = augment_strategy1(g, vocab, vecs)
    b = augment_strategy1(g, vocab, vecs)
    assert a[1] == b[1]
    assert a[0].provenance == b[0].provenance


# -- the two strategies before they became table rows, kept as the oracle --

def old_chain_additions(vector, chains, edge_weight):
    additions = {}
    for cid, w in vector.items():
        chain = chains.get(cid)
        if not chain or len(chain) < 2:
            continue
        for i in range(1, len(chain)):
            ew = edge_weight(chain[i], chain[i - 1])
            if ew is None:
                continue
            gain = (1.0 / i) * ew * w
            if gain != 0.0:
                additions[chain[i]] = additions.get(chain[i], 0.0) + gain
    return additions


def old_apply_augmentation(vocab, vectors, all_additions, normalize):
    new_vocab = vocab.copy()
    out = []
    for vec, adds in zip(vectors, all_additions):
        merged = dict(vec)
        for cid, gain in adds.items():
            merged[cid] = merged.get(cid, 0.0) + gain
            if cid not in new_vocab:
                new_vocab.provenance[cid] = PROVENANCE_CHAIN
        out.append(_l2_normalize(merged) if (normalize and adds) else merged)
    return new_vocab, out


def old_s_weight(g):
    def s_weight(sub, sup):
        s = g.edge(sub, sup).s
        if s is None:
            raise DataError(f"edge {sub} -> {sup} has no semanticity")
        return s
    return s_weight


def old_strategy1(g, vocab, vectors, normalize):
    chains = {cid: most_semantic_chain(g, cid) if cid in g else [cid]
              for cid in vocab.ids}
    additions = [old_chain_additions(vec, chains, old_s_weight(g))
                 for vec in vectors]
    return old_apply_augmentation(vocab, vectors, additions, normalize)


def old_strategy2(g, vocab, vectors, language, include_semantic, normalize):
    phonetic = {cid: least_phonetic_chain(g, cid, language) if cid in g
                else [cid] for cid in vocab.ids}

    def phi_weight(sub, sup):
        return g.edge(sub, sup).phi.get(language.value)

    phonetic_adds = [old_chain_additions(vec, phonetic, phi_weight)
                     for vec in vectors]
    if include_semantic:
        semantic = {cid: most_semantic_chain(g, cid) if cid in g else [cid]
                    for cid in vocab.ids}
        semantic_adds = [old_chain_additions(vec, semantic, old_s_weight(g))
                         for vec in vectors]
        combined = []
        for sa, pa in zip(semantic_adds, phonetic_adds):
            merged = dict(sa)
            for cid, gain in pa.items():
                merged[cid] = merged.get(cid, 0.0) + gain
            combined.append(merged)
        phonetic_adds = combined
    return old_apply_augmentation(vocab, vectors, phonetic_adds, normalize)


OLD_STRATEGIES = {
    "baseline": lambda g, vocab, vecs, lang, norm: (vocab, vecs),
    "semantic": lambda g, vocab, vecs, lang, norm:
        old_strategy1(g, vocab, vecs, norm),
    "combined": lambda g, vocab, vecs, lang, norm:
        old_strategy2(g, vocab, vecs, lang, True, norm),
    "phonetic": lambda g, vocab, vecs, lang, norm:
        old_strategy2(g, vocab, vecs, lang, False, norm),
}


@st.composite
def augmentation_cases(draw):
    """A random DAG whose edges carry S (often 0, rarely missing) and phi
    in some languages only; vocabulary classes may lie outside it."""
    n = draw(st.integers(1, 8))
    g = from_edges([], nodes=range(n))
    # decimal fractions, so that sums regrouped differently round apart
    unit = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.6, 1 / 3]),
                     st.floats(0.0, 1.0, allow_nan=False))
    for sup in range(n):
        for sub in range(sup):
            if draw(st.booleans()):
                g.add_edge(sub, sup)
                data = g.edge(sub, sup)
                kind = draw(st.integers(0, 9))
                data.s = None if kind == 0 else 0.0 if kind < 4 else draw(unit)
                for lang in draw(st.sets(st.sampled_from(list(Language)))):
                    data.phi[lang.value] = draw(unit)
    ids = draw(st.sets(st.integers(0, n + 2), min_size=1))
    vocab = Vocabulary({cid: PROVENANCE_BASELINE for cid in ids})
    weight = st.floats(1e-3, 1.0, allow_nan=False)
    vectors = draw(st.lists(st.dictionaries(st.sampled_from(sorted(ids)),
                                            weight), max_size=4))
    return (g, vocab, vectors, draw(st.sampled_from(list(STRATEGIES))),
            draw(st.sampled_from(list(Language))), draw(st.booleans()))


def _outcome(fn):
    try:
        vocab, vectors = fn()
    except DataError:
        return "DataError"
    return vocab.provenance, vectors


def _two_chains_into_one_class():
    """Classes 2 and 3 both descend to class 0, so each part adds two
    gains to it: 0.1 + 0.1 semantic and 0.1 + 0.6 phonetic.  Summing the
    parts on their own gives 0.2 + 0.7; one running sum across both parts
    would round differently."""
    g = from_edges([(0, 2), (0, 3)])
    for sub, sup, s, phi in ((0, 2, 0.1, 0.1), (0, 3, 0.1, 0.6)):
        g.edge(sub, sup).s = s
        g.edge(sub, sup).phi[ON.value] = phi
    vocab = Vocabulary({2: PROVENANCE_BASELINE, 3: PROVENANCE_BASELINE})
    return g, vocab, [{2: 1.0, 3: 1.0}], "combined", ON, False


def _zero_semanticity_step():
    """Class 2's semantic chain is 2, 1, 0 with S = 0 on its first step:
    that step adds nothing, not even vocabulary, and the second step
    still adds (1/2) * 0.3."""
    g = from_edges([(0, 1), (1, 2)])
    g.edge(0, 1).s, g.edge(1, 2).s = 0.3, 0.0
    return (g, Vocabulary({2: PROVENANCE_BASELINE}), [{2: 1.0}], "semantic",
            ON, True)


def _underflowing_gain():
    """phi is the smallest subnormal, so (1/1) * phi * 0.25 rounds to 0.0
    and adds nothing, while (1/1) * phi * 1.0 does add class 0."""
    g = from_edges([(0, 1)])
    g.edge(0, 1).s = 0.5
    g.edge(0, 1).phi[ON.value] = 5e-324
    return (g, Vocabulary({1: PROVENANCE_BASELINE}), [{1: 0.25}, {1: 1.0}],
            "phonetic", ON, False)


@settings(max_examples=300, deadline=None)
@given(augmentation_cases())
@example(_two_chains_into_one_class())
@example(_zero_semanticity_step())
@example(_underflowing_gain())
def test_augment_equals_old_strategies(case):
    g, vocab, vectors, strategy, language, normalize = case
    got = _outcome(lambda: augment(g, vocab, vectors, STRATEGIES[strategy],
                                   language, normalize=normalize))
    want = _outcome(lambda: OLD_STRATEGIES[strategy](g, vocab, vectors,
                                                     language, normalize))
    assert got == want
