import random

import pytest

from sinograph.errors import DataError, InputError
from sinograph.graphcore import EdgeData, InclusionGraph, from_edges
from sinograph.inferschar import semantic_approximation
from sinograph.semantics import semanticity


def graph_with_s(edges_s):
    g = from_edges(list(edges_s))
    semanticity(g)
    for e, s in edges_s.items():
        g.edge(*e).s = s
    return g


def test_two_path_worked_example():
    # path of length 1 (S 0.6) to an annotated node, path of length 2
    # (S 0.5 * 0.5) to another
    g = graph_with_s({(1, 0): 0.6, (2, 0): 0.5, (3, 2): 0.5})
    ann = {1: {"synA"}, 3: {"synB"}}
    vec = semantic_approximation(g, ann, 0)
    assert vec["synA"] == pytest.approx(0.8276, abs=1e-4)
    assert vec["synB"] == pytest.approx(0.1724, abs=1e-4)
    assert sum(vec.values()) == pytest.approx(1.0)


def test_single_annotated_neighbor():
    g = graph_with_s({(1, 0): 0.6})
    vec = semantic_approximation(g, {1: {"s1", "s2"}}, 0)
    assert vec == {"s1": pytest.approx(0.5), "s2": pytest.approx(0.5)}


def test_no_annotation_reachable_gives_empty():
    g = graph_with_s({(1, 0): 0.9, (2, 1): 0.9})
    assert semantic_approximation(g, {}, 0) == {}
    # annotation beyond max_depth is invisible
    assert semantic_approximation(g, {2: {"x"}}, 0, max_depth=1) == {}
    assert semantic_approximation(g, {2: {"x"}}, 0, max_depth=2) != {}


def test_annotated_start_returns_own_annotation():
    g = graph_with_s({(1, 0): 0.5})
    vec = semantic_approximation(g, {0: {"a", "b"}, 1: {"c"}}, 0)
    assert vec == {"a": pytest.approx(0.5), "b": pytest.approx(0.5)}


def test_errors():
    g = graph_with_s({(1, 0): 0.5})
    with pytest.raises(DataError):
        semantic_approximation(g, {}, 77)
    with pytest.raises(InputError):
        semantic_approximation(g, {}, 0, direction="sideways")
    with pytest.raises(InputError):
        semantic_approximation(g, {}, 0, max_depth=0)


def test_direction_flag():
    g = graph_with_s({(1, 0): 0.8})
    # from node 1, following successors finds node 0
    vec = semantic_approximation(g, {0: {"up"}}, 1, direction="super")
    assert vec == {"up": pytest.approx(1.0)}


def test_monotone_in_edge_s():
    g = graph_with_s({(1, 0): 0.3, (2, 0): 0.3})
    ann = {1: {"a"}, 2: {"b"}}
    before = semantic_approximation(g, ann, 0)
    g.edge(1, 0).s = 0.6
    after = semantic_approximation(g, ann, 0)
    assert after["a"] > before["a"]


def enumerate_paths(g, start, max_depth):
    """All simple predecessor paths up to max_depth, by plain recursion."""
    paths = []

    def rec(path):
        node = path[-1]
        if len(path) - 1 >= max_depth:
            return
        for p in g.predecessors(node):
            if p in path:
                continue
            paths.append(path + [p])
            rec(path + [p])

    rec([start])
    return paths


def oracle_vector(g, annotations, start, max_depth):
    """Definitional recomputation: over all simple paths, keep those whose
    last node is the path's first annotated node."""
    weights = {}
    for path in enumerate_paths(g, start, max_depth):
        inner = path[1:]
        if not annotations.get(inner[-1]):
            continue
        if any(annotations.get(n) for n in inner[:-1]):
            continue  # a closer annotated node already stopped this path
        prod = 1.0
        for a, b in zip(inner, path):
            prod *= g.edge(a, b).s
        for sid in annotations[inner[-1]]:
            weights[sid] = weights.get(sid, 0.0) + prod / len(inner)
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()} if total > 0 else {}


def test_matches_path_enumeration_oracle_on_random_graphs():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randrange(5, 14)
        g = from_edges([], nodes=range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    g.add_edge(i, j)
        semanticity(g)
        for e in g.edges():
            g.edge(*e).s = rng.random()
        annotations = {i: {f"syn{i}"} for i in range(n) if rng.random() < 0.3}
        start = rng.randrange(n)
        if annotations.get(start):
            continue
        depth = rng.randrange(1, 5)
        got = oracle = None
        got = semantic_approximation(g, annotations, start, max_depth=depth)
        oracle = oracle_vector(g, annotations, start, depth)
        assert set(got) == set(oracle)
        for k in got:
            assert got[k] == pytest.approx(oracle[k], abs=1e-12)


class CountingGraph(InclusionGraph):
    """A graph that counts the reads of edge attributes."""

    reads = 0

    def stored(self, sub, sup):
        self.reads += 1
        return super().stored(sub, sup)


def test_work_is_bounded_by_depth_times_edges():
    # 9 layers of 4 nodes, each node a subcharacter of every node of the
    # layer above: 4**8 paths lead from node 0 to the annotated bottom
    width, layers = 4, 9
    g = CountingGraph()
    for layer in range(layers - 1):
        for sup in range(layer * width, (layer + 1) * width):
            for sub in range((layer + 1) * width, (layer + 2) * width):
                g.add_edge(sub, sup, EdgeData(s=0.5))
    bottom = range((layers - 1) * width, layers * width)
    vec = semantic_approximation(g, {n: {f"syn{n}"} for n in bottom}, 0,
                                 max_depth=layers)
    assert vec == {f"syn{n}": pytest.approx(1 / width) for n in bottom}
    assert g.reads <= layers * g.edge_count()


def test_cutoff_blocks_nodes_behind_annotation():
    # 0 <- 1 <- 2, node 1 annotated: node 2 must contribute nothing
    g = graph_with_s({(1, 0): 0.9, (2, 1): 0.9})
    vec = semantic_approximation(g, {1: {"near"}, 2: {"far"}}, 0)
    assert vec == {"near": pytest.approx(1.0)}


def test_output_sums_to_one_when_nonempty():
    rng = random.Random(3)
    for _ in range(20):
        g = from_edges([], nodes=range(8))
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.4:
                    g.add_edge(i, j)
        semanticity(g)
        for e in g.edges():
            g.edge(*e).s = rng.random()
        ann = {i: {f"s{i}"} for i in range(8) if rng.random() < 0.4}
        vec = semantic_approximation(g, ann, 7) if 7 not in ann else {}
        if vec:
            assert sum(vec.values()) == pytest.approx(1.0)
            assert all(w >= 0 for w in vec.values())
