import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta
from scipy.stats import zipf

from sinograph.charstore import build_allograph_classes
from sinograph.errors import DataError, InputError
from sinograph.graphcore import (
    EdgeData,
    InclusionGraph,
    _zeta,
    fit_power_law,
    from_edges,
    lift_to_classes,
    transitive_reduce,
)


def random_dag(rng, max_nodes=50, density=(0.1, 0.5)):
    n = rng.randrange(5, max_nodes + 1)
    p = rng.uniform(*density)
    g = from_edges([], nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def reachable_from(g, src):
    """Plain DFS reachability, independent of the reduction code."""
    seen = set()
    stack = [src]
    while stack:
        node = stack.pop()
        for nxt in g.successors(node):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def brute_force_reduction(g):
    """Drop an edge iff the endpoints stay connected without it."""
    kept = set()
    for a, c in g.edges():
        h = InclusionGraph()
        for n in g.nodes:
            h.add_node(n)
        for e in g.edges():
            if e != (a, c):
                h.add_edge(*e)
        if c not in reachable_from(h, a):
            kept.add((a, c))
    return kept


def set_based_reduction(g):
    """Reference: descendant sets, and an edge (a, c) is dropped iff c
    descends from another successor of a."""
    desc = {}
    for node in reversed(g.topological_order()):
        d = set()
        for s in g.successors(node):
            d.add(s)
            d |= desc[s]
        desc[node] = d
    return {(a, c) for a, c in g.edges()
            if not any(c in desc[b] for b in g.successors(a) if b != c)}


@st.composite
def labelled_dags(draw):
    """A random DAG whose node ids are unrelated to its topological
    order; each edge carries its own f1 so attributes can be traced."""
    ids = draw(st.lists(st.integers(-50, 10_000), min_size=1, max_size=40,
                        unique=True))
    n = len(ids)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=4 * n))
    g = from_edges([], nodes=ids)
    for i, j in pairs:  # an edge always runs from earlier to later in ids
        if i < j:
            g.add_edge(ids[i], ids[j], EdgeData(f1=i * n + j))
    return g


@settings(max_examples=300, deadline=None)
@given(labelled_dags())
def test_bitset_reduction_equals_set_based(g):
    reduced = transitive_reduce(g)
    assert set(reduced.edges()) == set_based_reduction(g)
    assert reduced.nodes == g.nodes
    for a, c in reduced.edges():
        assert reduced.edge(a, c).f1 == g.edge(a, c).f1


@settings(max_examples=100, deadline=None)
@given(labelled_dags(), st.data())
def test_bitset_reduction_rejects_a_cycle(g, data):
    edges = g.edges()
    if not edges:
        a, b = min(g.nodes), max(g.nodes) + 1
        g.add_edge(a, b)
        edges = [(a, b)]
    a, c = data.draw(st.sampled_from(edges))
    g.add_edge(c, a)  # closes the cycle a -> ... -> c -> a
    with pytest.raises(DataError, match="cycle"):
        transitive_reduce(g)


def test_triangle_reduced():
    g = from_edges([(1, 2), (2, 3), (1, 3)])
    assert transitive_reduce(g).edges() == [(1, 2), (2, 3)]


def test_chain_unchanged():
    g = from_edges([(1, 2), (2, 3)])
    assert transitive_reduce(g).edges() == [(1, 2), (2, 3)]


def test_reduction_matches_brute_force_and_preserves_reachability():
    rng = random.Random(2024)
    for _ in range(200):
        g = random_dag(rng)
        reduced = transitive_reduce(g)
        assert set(reduced.edges()) == brute_force_reduction(g)
        for node in g.nodes:
            assert reachable_from(g, node) == reachable_from(reduced, node)


def test_reduction_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        g = random_dag(rng, max_nodes=25)
        once = transitive_reduce(g)
        twice = transitive_reduce(once)
        assert once.edges() == twice.edges()


def test_cycle_reported_with_witness():
    g = from_edges([(1, 2), (2, 3), (3, 1)])
    with pytest.raises(DataError, match="cycle: 1 -> 2 -> 3 -> 1"):
        transitive_reduce(g)
    # the lowest id lies downstream of the cycle and has no successor
    g = from_edges([(1, 2), (2, 1), (1, 0)])
    with pytest.raises(DataError, match="cycle: 1 -> 2 -> 1"):
        transitive_reduce(g)


def test_reduction_keeps_edge_attributes():
    g = from_edges([(1, 2), (2, 3), (1, 3)])
    g.edge(1, 2).f1 = 5
    given = EdgeData(f1=7)
    g.add_edge(3, 4, given)
    reduced = transitive_reduce(g)
    assert reduced.edge(1, 2).f1 == 5
    assert reduced.edge(3, 4) is given  # shared with the input, not copied


def test_edge_attributes_are_created_on_first_read():
    g = from_edges([(1, 2), (2, 3), (1, 3)])
    assert set(g._edges.values()) == {None}  # nothing stored before a read
    data = g.edge(1, 2)
    assert g.edge(1, 2) is data
    assert data == EdgeData()
    with pytest.raises(DataError, match="no edge 2 -> 1"):
        g.edge(2, 1)
    reduced = transitive_reduce(from_edges([(1, 2), (2, 3), (1, 3)]))
    assert set(reduced._edges.values()) == {None}
    assert reduced.edge(2, 3) == EdgeData()
    assert reduced.edge(2, 3) is reduced.edge(2, 3)


def test_self_loop_rejected():
    g = InclusionGraph()
    with pytest.raises(InputError):
        g.add_edge(4, 4)


def test_lift_singletons_isomorphic():
    classes = build_allograph_classes(set(), {10, 11, 12})
    cid = {cp: next(c.id for c in classes if cp in c.members)
           for cp in (10, 11, 12)}
    g = lift_to_classes([(10, 11), (11, 12)], classes)
    assert g.edges() == sorted([(cid[10], cid[11]), (cid[11], cid[12])])


def test_lift_deduplicates_variant_edges():
    classes = build_allograph_classes({(10, 11)}, {10, 11, 20})
    g = lift_to_classes([(10, 20), (11, 20)], classes)
    assert g.edge_count() == 1


def test_lift_drops_intra_class_edges():
    classes = build_allograph_classes({(10, 11)}, {10, 11})
    g = lift_to_classes([(10, 11)], classes)
    assert g.edge_count() == 0
    assert g.node_count() == 1


def test_lift_unknown_codepoint_rejected():
    classes = build_allograph_classes(set(), {10})
    with pytest.raises(InputError):
        lift_to_classes([(10, 99)], classes)


def test_lift_counts_bounded():
    rng = random.Random(3)
    chars = set(range(40))
    pairs = {tuple(rng.sample(sorted(chars), 2)) for _ in range(10)}
    classes = build_allograph_classes(pairs, chars)
    edges = [tuple(rng.sample(sorted(chars), 2)) for _ in range(60)]
    g = lift_to_classes(edges, classes)
    assert g.node_count() <= len(chars)
    assert g.edge_count() <= len(edges)


def test_power_law_recovery_single():
    xs = zipf(2.5).rvs(size=1000, random_state=np.random.default_rng(0))
    assert abs(fit_power_law(xs) - 2.5) <= 0.15


def test_power_law_excludes_zeros_and_needs_samples():
    xs = list(zipf(2.0).rvs(size=50, random_state=np.random.default_rng(1)))
    assert fit_power_law(xs + [0] * 10) == pytest.approx(fit_power_law(xs))
    with pytest.raises(InputError):
        fit_power_law([1, 2, 3])
    with pytest.raises(InputError):
        fit_power_law([0] * 50)


def test_power_law_degenerate_sentinel():
    assert fit_power_law([4] * 25) == math.inf


def test_zeta_matches_scipy_over_the_bisection_range():
    # the grid spans every argument fit_power_law evaluates, its bounds
    # shifted by the finite-difference step h; the bound is 6 eps because
    # the reference sums its terms in sequence and is itself off from the
    # exact value by up to about 5 eps at some arguments
    for s in np.linspace(1.0001 - 1e-6, 60 + 1e-6, 2001):
        ref = zeta(s, 1)
        assert abs(_zeta(float(s)) - ref) <= 6 * sys.float_info.epsilon * ref


def _fit_power_law_with_scipy(degrees):
    """The estimator as it stood on scipy.special.zeta and numpy."""
    xs = np.asarray([d for d in degrees if d > 0], dtype=float)
    mean_log = float(np.mean(np.log(xs)))
    h = 1e-6

    def score(a):
        return (math.log(zeta(a + h, 1)) - math.log(zeta(a - h, 1))) / (2 * h) + mean_log

    lo, hi = 1.0001, 60.0
    if score(lo) >= 0:
        return lo
    if score(hi) <= 0:
        return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if score(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def test_power_law_matches_the_scipy_estimator():
    rng = np.random.default_rng(11)
    for alpha in np.linspace(1.5, 4.0, 40):
        xs = zipf(alpha).rvs(size=300, random_state=rng)
        assert fit_power_law(xs) == pytest.approx(
            _fit_power_law_with_scipy(xs), abs=1e-7)
