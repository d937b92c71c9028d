"""The inclusion DAG: lifting, transitive reduction, power-law exponent
estimation.

Edges point from subcharacter to containing character.  Detecting
inclusions from signatures over-generates shortcut edges (every chain
a -> b -> c also yields a -> c), so the graph is detriangulated by
transitive reduction: an edge is dropped exactly when a longer path
between its endpoints exists, leaving reachability untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .charstore import AllographClass
from .errors import DataError, InputError


@dataclass
class EdgeData:
    """Attributes attached to one inclusion edge.

    ``d_min``/``phi`` are per-language maps; a missing key means the
    distance (and hence the phoneticity) is unknown for that language.
    ``s`` is the globally normalized semanticity, ``None`` until computed.
    """

    d_min: dict[str, float] = field(default_factory=dict)
    phi: dict[str, float] = field(default_factory=dict)
    f1: int = 0
    f2: int = 0
    r: float = 0.0
    s_raw: float | None = None
    s: float | None = None


class InclusionGraph:
    """Directed graph over integer node ids with attributed edges.

    Used both for the raw character-level inclusion graph (node ids are
    codepoints) and for the lifted class-level graph (node ids are
    allographic class ids).
    """

    def __init__(self) -> None:
        self._nodes: set[int] = set()
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}
        self._edges: dict[tuple[int, int], EdgeData | None] = {}
        self.meta: dict[str, str] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: int) -> None:
        if node not in self._nodes:
            self._nodes.add(node)
            self._succ[node] = set()
            self._pred[node] = set()

    def add_edge(self, sub: int, sup: int, data: EdgeData | None = None) -> None:
        """Add the edge sub -> sup unless it exists.  Without ``data`` the
        edge stores no ``EdgeData`` until ``edge`` first reads it, so a
        graph whose attributes are never read holds none."""
        if sub == sup:
            raise InputError(f"self-loop on node {sub} is not an inclusion")
        self.add_node(sub)
        self.add_node(sup)
        key = (sub, sup)
        if key not in self._edges:
            self._edges[key] = data
            self._succ[sub].add(sup)
            self._pred[sup].add(sub)

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> set[int]:
        return set(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    def edge(self, sub: int, sup: int) -> EdgeData:
        key = (sub, sup)
        try:
            data = self._edges[key]
        except KeyError:
            raise DataError(f"no edge {sub} -> {sup}") from None
        if data is None:
            data = self._edges[key] = EdgeData()
        return data

    def successors(self, node: int) -> set[int]:
        return set(self._succ[node])

    def predecessors(self, node: int) -> set[int]:
        return set(self._pred[node])

    def descend(self, start: int,
                key: Callable[[int, int], float | None]) -> list[int]:
        """Chain from ``start`` that repeatedly steps to the predecessor p
        of the current node with the smallest ``key(p, current)``,
        skipping predecessors whose key is None; ties break toward the
        lowest id, and the chain stops where no predecessor is left."""
        if start not in self:
            raise DataError(f"node {start} not in graph")
        chain = [start]
        while True:
            current = chain[-1]
            candidates = [(k, p) for p in self.predecessors(current)
                          if (k := key(p, current)) is not None]
            if not candidates:
                return chain
            chain.append(min(candidates)[1])

    def topological_order(self) -> list[int]:
        """Kahn topological order; raises DataError naming a cycle witness."""
        indeg = {n: len(self._pred[n]) for n in self._nodes}
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for m in sorted(self._succ[n]):
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
        if len(order) != len(self._nodes):
            witness = self._find_cycle({n for n, d in indeg.items() if d > 0})
            raise DataError("graph has a cycle: " +
                            " -> ".join(str(n) for n in witness))
        return order

    def _find_cycle(self, candidates: set[int]) -> list[int]:
        # Every candidate kept a positive in-degree, so it has a
        # predecessor among the candidates and a walk over predecessors
        # must close a cycle; a walk over successors can instead stop at
        # a node that only lies downstream of one.
        start = min(candidates)
        seen: dict[int, int] = {}
        path = [start]
        seen[start] = 0
        node = start
        while True:
            node = min(p for p in self._pred[node] if p in candidates)
            if node in seen:
                return (path[seen[node]:] + [node])[::-1]
            seen[node] = len(path)
            path.append(node)


def from_edges(edges: Iterable[tuple[int, int]],
               nodes: Iterable[int] = ()) -> InclusionGraph:
    g = InclusionGraph()
    for n in nodes:
        g.add_node(n)
    for a, b in edges:
        g.add_edge(a, b)
    return g


def lift_to_classes(
    char_edges: Iterable[tuple[int, int]],
    classes: Sequence[AllographClass],
) -> InclusionGraph:
    """Lift character-level inclusion edges to allographic classes.

    A class edge c1 -> c2 exists iff some member pair carries a character
    edge.  Edges between members of one class are allographic identities
    and are dropped.  All class ids become nodes, including isolated ones.
    """
    class_of = {cp: cls.id for cls in classes for cp in cls.members}
    ids = {cls.id for cls in classes}
    g = InclusionGraph()
    for cid in ids:
        g.add_node(cid)
    for a, b in char_edges:
        if a not in class_of or b not in class_of:
            missing = a if a not in class_of else b
            raise InputError(f"codepoint U+{missing:04X} has no allographic class")
        ca, cb = class_of[a], class_of[b]
        if ca != cb:
            g.add_edge(ca, cb)
    return g


def transitive_reduce(g: InclusionGraph) -> InclusionGraph:
    """Unique transitive reduction of a DAG.

    Removes every edge (a, c) for which a path a -> ... -> c of length
    at least 2 exists; reachability is preserved exactly.  The reduced
    graph shares each kept edge's ``EdgeData`` with ``g``, not a copy,
    and creates none for an edge whose attributes were never read.
    Raises DataError on a cyclic input.
    """
    order = g.topological_order()
    # Descendant sets are int bitsets.  A node's bit is its position in
    # reverse topological order, so descendants get lower bits and the
    # sets near the sinks stay small.  below[a] ORs the descendants of
    # all of a's successors, the target c of an edge (a, c) included:
    # in a DAG c does not descend from itself, so c is in below[a] iff a
    # reaches c by a path of length at least 2.
    pos: dict[int, int] = {}
    desc: dict[int, int] = {}
    below: dict[int, int] = {}
    for i, node in enumerate(reversed(order)):
        pos[node] = i
        via = direct = 0
        for s in g._succ[node]:
            via |= desc[s]
            direct |= 1 << pos[s]
        below[node] = via
        desc[node] = via | direct

    reduced = InclusionGraph()
    for n in g.nodes:
        reduced.add_node(n)
    for a, c in g.edges():
        if not below[a] >> pos[c] & 1:
            reduced.add_edge(a, c, g._edges[(a, c)])
    reduced.meta = dict(g.meta)
    return reduced


# B_2k / (2k)! for k = 1..7, the Euler-Maclaurin correction coefficients
_EM_COEFFS = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), 1))


def _zeta(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin summation: the terms
    n < N = 10 exactly, the integral and half-term tails at N, and seven
    Bernoulli corrections.  The first omitted correction is below 1e-16
    relative for every s > 1."""
    n = 10
    terms = [k ** -s for k in range(1, n)]
    terms.append(n ** (1 - s) / (s - 1))
    terms.append(0.5 * n ** -s)
    # the k-th correction is B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(1-s-2k)
    rising = s * n ** (-s - 1)
    for j, c in enumerate(_EM_COEFFS):
        terms.append(c * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return math.fsum(terms)


def fit_power_law(degrees: Iterable[int]) -> float:
    """Discrete (zeta-family) maximum-likelihood power-law exponent,
    x_min = 1.

    Zero degrees are excluded; at least 10 positive samples are required.
    Solves the score equation zeta'(a)/zeta(a) = -mean(log x) by
    bisection.  A degenerate sample with no spread (all degrees equal)
    carries no slope information and returns ``math.inf``.
    """
    xs = [float(d) for d in degrees if d > 0]
    if len(xs) < 10:
        raise InputError(f"need at least 10 positive samples, got {len(xs)}")
    if min(xs) == max(xs):
        return math.inf

    mean_log = math.fsum(math.log(x) for x in xs) / len(xs)
    h = 1e-6

    def score(a: float) -> float:
        # increasing in a: d/da log zeta(a) rises from -inf toward 0
        return (math.log(_zeta(a + h)) - math.log(_zeta(a - h))) / (2 * h) + mean_log

    lo, hi = 1.0001, 60.0
    if score(lo) >= 0:  # extremely heavy tail, exponent at the lower boundary
        return lo
    if score(hi) <= 0:  # indistinguishable from a point mass at x_min
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
