import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinograph.errors import InputError
from sinograph.freqlists import (
    FrequencyList,
    _average_ranks,
    aggregate_ufl,
    comchar,
    distance_dN,
    distance_matrix,
    from_counts,
    spearman,
)


def fl(pairs):
    return FrequencyList(entries=tuple(pairs))


def test_from_counts_basic():
    a = from_counts({97: 3, 98: 1})
    assert a.entries == ((97, 0.75), (98, 0.25))
    assert from_counts({97: 1}).entries == ((97, 1.0),)


def test_from_counts_tie_order():
    a = from_counts({98: 2, 97: 2})
    assert [cp for cp, _ in a.entries] == [97, 98]
    with pytest.raises(InputError):
        from_counts({})
    with pytest.raises(InputError, match="^counts must be positive$"):
        from_counts({1: 0})


def test_frequency_list_invariants():
    with pytest.raises(InputError):
        fl([(97, 0.2), (97, 0.3)])
    with pytest.raises(InputError):
        fl([(97, 0.2), (98, 0.5)])  # not sorted
    with pytest.raises(InputError):
        fl([(97, -0.1)])


def test_comchar_cases():
    a = from_counts({97: 3, 98: 2, 99: 1})
    assert comchar(a, a, 10) == {97, 98, 99}
    disjoint = from_counts({120: 1})
    assert comchar(a, disjoint, 2) == set()
    # A=[a,b,c], A'=[c,d,a], N=2 -> {a, c}
    a2 = from_counts({97: 3, 98: 2, 99: 1})
    b2 = from_counts({99: 3, 100: 2, 97: 1})
    assert comchar(a2, b2, 2) == {97, 99}
    with pytest.raises(InputError):
        comchar(a, a, 0)


def test_distance_coverage_bounds():
    a = from_counts({97: 3, 98: 2, 99: 1})
    assert distance_dN(a, a, 3) == 0.0
    # three common characters over N = 6: coverage 0.5, rho = 1
    assert distance_dN(a, a, 6) == 0.5
    assert distance_dN(a, from_counts({120: 1}), 2) == 1.0


@pytest.mark.parametrize("restricted, ranks", [
    ([], {}),
    ([(1, .5), (2, .3), (3, .2)], {1: 1, 2: 2, 3: 3}),
    # a tie of three in the middle shares ranks 2, 3 and 4
    ([(10, .4), (11, .2), (12, .2), (13, .2), (14, .1)],
     {10: 1, 11: 3, 12: 3, 13: 3, 14: 5}),
    ([(1, .5), (2, .5)], {1: 1.5, 2: 1.5}),  # a leading tie
    ([(7, .6), (8, .2), (9, .2)], {7: 1, 8: 2.5, 9: 2.5}),  # a trailing one
])
def test_tied_frequencies_share_their_average_rank(restricted, ranks):
    assert _average_ranks(restricted) == ranks


def test_distance_correlates_average_ranks():
    # ranks 1, 3, 3, 3, 5 against 1, 2, 3, 4.5, 4.5: both means are 3,
    # so cov = 4 + 3 = 7, the variances are 8 and 9.5, rho = 7 / sqrt(76)
    a = fl([(10, .3), (11, .2), (12, .2), (13, .2), (14, .1)])
    b = fl([(10, .4), (11, .3), (12, .2), (13, .05), (14, .05)])
    rho = 7 / math.sqrt(76)
    assert distance_dN(a, b, 5) == pytest.approx(1 - (rho + 1) / 2, abs=1e-15)


def brute_force_rank_corr(xs, ys):
    """Pearson correlation computed straight from its definition."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs)) * \
        math.sqrt(sum((y - my) ** 2 for y in ys))
    return num / den


def test_spearman_matches_brute_force_on_all_permutations():
    for n in range(2, 7):
        base = list(range(1, n + 1))
        for perm in itertools.permutations(base):
            if len(set(perm)) == 1:
                continue
            got = spearman(base, list(perm))
            want = brute_force_rank_corr(base, list(perm))
            assert got == pytest.approx(want, abs=1e-12)


def test_spearman_conventions():
    assert spearman([1, 2, 3], [1, 2, 3]) == 1.0
    assert spearman([1.5, 1.5], [1, 2]) == 0.0  # zero variance side
    with pytest.raises(InputError):
        spearman([1], [1, 2])
    with pytest.raises(InputError, match="^rank vectors must be nonempty$"):
        spearman([], [])


def test_distance_outside_the_unit_interval_is_logged_not_clamped(caplog):
    # three shared characters among the top two of each list: coverage 1.5
    a = from_counts({1: 6, 2: 5, 3: 4, 4: 3, 5: 2})
    b = from_counts({1: 6, 3: 5, 2: 4, 4: 3, 5: 2})
    assert distance_dN(a, b, 2) == pytest.approx(-0.125)
    assert "list distance -0.125000 outside [0, 1]" in caplog.text


def test_distance_identity_is_zero():
    a = from_counts({97: 5, 98: 3, 99: 2})
    assert distance_dN(a, a, 3) == 0.0


def test_distance_reversed_ranking_is_one():
    a = from_counts({97: 3, 98: 2, 99: 1})
    rev = from_counts({97: 1, 98: 2, 99: 3})
    assert distance_dN(a, rev, 3) == pytest.approx(1.0)


def test_distance_disjoint_is_one():
    a = from_counts({97: 1})
    b = from_counts({98: 1})
    assert distance_dN(a, b, 1) == 1.0


def test_distance_symmetric_random():
    rng = random.Random(9)
    for _ in range(30):
        a = from_counts({cp: rng.randrange(1, 50)
                         for cp in rng.sample(range(200), 12)})
        b = from_counts({cp: rng.randrange(1, 50)
                         for cp in rng.sample(range(200), 12)})
        n = rng.randrange(1, 15)
        assert distance_dN(a, b, n) == pytest.approx(distance_dN(b, a, n))


def test_singleton_overlap_uses_zero_rho():
    a = from_counts({97: 2, 98: 1})
    b = from_counts({97: 2, 99: 1})
    # comchar at N=1 is {97}; rho := 0, coverage = 1
    assert distance_dN(a, b, 1) == pytest.approx(1 - 1 * 0.5)


def test_aggregate_single_list_identity():
    a = from_counts({97: 1, 98: 1})
    u = aggregate_ufl([a])
    assert u.entries == a.entries


def test_aggregate_formula_verbatim():
    x1 = fl([(97, 0.5), (98, 0.5)])
    x2 = fl([(97, 1.0)])
    u = aggregate_ufl([x1, x2])
    d = u.as_dict()
    assert d[97] == pytest.approx(0.5 * (2 / 2) + 1.0 * (1 / 2))
    assert d[98] == pytest.approx(0.5)
    assert [cp for cp, _ in u.entries] == [97, 98]


def test_aggregate_disjoint_singletons():
    u = aggregate_ufl([fl([(97, 1.0)]), fl([(98, 1.0)])])
    d = u.as_dict()
    assert d[97] == pytest.approx(0.5)
    assert d[98] == pytest.approx(0.5)
    with pytest.raises(InputError):
        aggregate_ufl([])


def test_aggregate_identical_copies_scales_by_multiplicity():
    a = from_counts({97: 3, 98: 1})
    u = aggregate_ufl([a, a, a])
    # the weight formula gives each copy weight 1, so masses add verbatim
    for cp, f in a.entries:
        assert u.as_dict()[cp] == pytest.approx(3 * f)


def test_aggregate_renormalizes_behind_flag():
    x1 = fl([(97, 0.5), (98, 0.5)])
    x2 = fl([(97, 1.0)])
    u = aggregate_ufl([x1, x2], renormalize=True)
    assert sum(u.as_dict().values()) == pytest.approx(1.0)


def test_distance_matrix_shapes():
    a = from_counts({97: 3, 98: 2, 99: 1})
    rev = from_counts({97: 1, 98: 2, 99: 3})
    same = from_counts({97: 3, 98: 2, 99: 1})
    m = distance_matrix([a, same], 3)
    assert m == [[0.0, 0.0], [0.0, 0.0]]
    m = distance_matrix([a, rev], 3)
    assert m[0][1] == pytest.approx(1.0)
    m3 = distance_matrix([a, rev, same], 3)
    for i in range(3):
        assert m3[i][i] == 0.0
        for j in range(3):
            assert m3[i][j] == m3[j][i]
    with pytest.raises(InputError):
        distance_matrix([a], 3)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 80), st.integers(1, 40),
                       min_size=1, max_size=20),
       st.dictionaries(st.integers(0, 80), st.integers(1, 40),
                       min_size=1, max_size=20),
       st.integers(1, 25))
def test_distance_observed_in_unit_interval(ca, cb, n):
    a, b = from_counts(ca), from_counts(cb)
    d = distance_dN(a, b, n)
    # the coverage factor may exceed 1 by definition; on these inputs the head size
    # bounds the overlap enough to stay inside [0, 1]
    assert -1.0 <= d <= 1.0
    assert distance_dN(b, a, n) == pytest.approx(d)
