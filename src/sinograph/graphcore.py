"""The inclusion DAG: lifting, transitive reduction, chains, power-law
exponent estimation.

Edges point from subcharacter to containing character.  Detecting
inclusions from signatures over-generates shortcut edges (every chain
a -> b -> c also yields a -> c), so the graph is detriangulated by
transitive reduction: an edge is dropped exactly when a longer path
between its endpoints exists, leaving reachability untouched.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, KeysView, NamedTuple

from .charstore import CharacterStore, Language
from .errors import DataError, InputError


@dataclass(slots=True)
class EdgeData:
    """Attributes attached to one inclusion edge.

    ``d_min``/``phi`` are per-language maps; a missing key means the
    distance (and hence the phoneticity) is unknown for that language.
    ``s`` is the globally normalized semanticity, ``None`` until computed.
    Slotted: an instance holds these fields and no per-instance
    ``__dict__``, so no other attribute can be set on it.
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

    The pipeline's graph is the class-level one: its node ids are
    allographic class ids, and the character-level inclusions exist
    only as the edge set that ``lift_to_classes`` reads.  ``nodes``,
    ``successors`` and ``predecessors`` are read-only views, not copies:
    they follow later edits of the graph.
    """

    def __init__(self) -> None:
        # each node's successors, holding each edge's data (None until set)
        self._succ: dict[int, dict[int, EdgeData | None]] = {}
        self._pred: dict[int, dict[int, None]] = {}
        self.meta: dict[str, str] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: int) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, sub: int, sup: int, data: EdgeData | None = None) -> bool:
        """Add the edge sub -> sup unless it exists; True if added.  Without
        ``data`` the edge stores no ``EdgeData`` until ``edge`` creates
        one, so a graph whose attributes are never set holds none."""
        if sub == sup:
            raise InputError(f"self-loop on node {sub} is not an inclusion")
        self.add_node(sub)
        self.add_node(sup)
        out = self._succ[sub]
        if sup in out:
            return False
        out[sup] = data
        self._pred[sup][sub] = None
        return True

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> KeysView[int]:
        return self._succ.keys()

    def __contains__(self, node: int) -> bool:
        return node in self._succ

    def edge_count(self) -> int:
        return sum(map(len, self._succ.values()))

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in sorted(self._succ) for b in sorted(self._succ[a])]

    def edge(self, sub: int, sup: int) -> EdgeData:
        """The attributes of the edge sub -> sup, to write: created if the
        edge stores none, and kept."""
        data = self.stored(sub, sup)
        if data is None:
            data = self._succ[sub][sup] = EdgeData()
        return data

    def stored(self, sub: int, sup: int) -> EdgeData | None:
        """The attributes of the edge sub -> sup, to read: None where
        nothing has set them."""
        try:
            return self._succ[sub][sup]
        except KeyError:
            raise DataError(f"no edge {sub} -> {sup}") from None

    def successors(self, node: int) -> KeysView[int]:
        return self._succ[node].keys()

    def predecessors(self, node: int) -> KeysView[int]:
        return self._pred[node].keys()

    def topological_order(self) -> list[int]:
        """A topological order, by Kahn's algorithm.  On a cyclic graph
        raises DataError naming one cycle along its edges, from its lowest
        node back to it."""
        indeg = {n: len(p) for n, p in self._pred.items()}
        order = [n for n, d in indeg.items() if d == 0]
        for n in order:  # the list grows as nodes become ready
            for m in self._succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    order.append(m)
        if len(order) != len(self._succ):
            try:
                graphlib.TopologicalSorter(self._pred).prepare()
            except graphlib.CycleError as e:
                # args[1] follows the edges and repeats its first node last
                cycle = e.args[1][:-1]
                low = cycle.index(min(cycle))
                witness = cycle[low:] + cycle[:low + 1]
                raise DataError("graph has a cycle: " +
                                " -> ".join(map(str, witness))) from None
        return order


class ChainKind(NamedTuple):
    """One kind of chain, the only owner of what a chain follows: the
    edge weight it reads (S or phi) and which way.  From its start a
    chain steps to the predecessor p of the current node whose edge
    p -> current has the largest weight, or the smallest, ties toward
    the lowest id, and stops where no predecessor is left.  An edge
    without the weight is skipped, or is a DataError if ``required``.
    """

    name: str
    read: Callable[[EdgeData, Language | None], float | None]
    largest: bool
    required: bool

    def weight(self, g: InclusionGraph, sub: int, sup: int,
               language: Language | None = None) -> float | None:
        """The weight of the edge sub -> sup, None where it has none."""
        data = g.stored(sub, sup)
        w = None if data is None else self.read(data, language)
        if w is None and self.required:
            raise DataError(f"edge {sub} -> {sup} has no {self.name}; "
                            f"compute it with the annotate subcommand")
        return w

    def walk(self, g: InclusionGraph, start: int,
             language: Language | None = None) -> list[tuple[int, float]]:
        """The steps of the chain from ``start``: each member after it,
        with the weight of the edge from that member to the one before."""
        if start not in g:
            raise DataError(f"node {start} not in graph")
        steps = []
        current = start
        while True:
            # "largest" is the smallest (-w, id), so ties go to the lowest id
            candidates = [(-w if self.largest else w, p, w)
                          for p in g.predecessors(current)
                          if (w := self.weight(g, p, current, language)) is not None]
            if not candidates:
                return steps
            _, current, w = min(candidates)
            steps.append((current, w))

    def chain(self, g: InclusionGraph, start: int,
              language: Language | None = None) -> list[int]:
        """The chain from ``start``, ``start`` first."""
        return [start] + [member for member, _ in self.walk(g, start, language)]


CHAIN_KINDS = {
    "semantic": ChainKind("semanticity", lambda data, language: data.s,
                          largest=True, required=True),
    "phonetic": ChainKind("phoneticity",
                          lambda data, language: data.phi.get(language.value),
                          largest=False, required=False),
}


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
    store: CharacterStore,
) -> InclusionGraph:
    """Lift character-level inclusion edges to allographic classes.

    A class edge c1 -> c2 exists iff some member pair carries a character
    edge.  Edges between members of one class are allographic identities
    and are dropped.  All class ids become nodes, including isolated ones.
    The character edges need no reduction first: lifting keeps
    reachability, and a DAG has one transitive reduction per
    reachability, so the reduced lift is the same either way.
    """
    class_of = store.class_of
    g = InclusionGraph()
    for cid in store.by_id:
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
    and creates none for an edge whose attributes were never set.
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
        for s in g.successors(node):
            via |= desc[s]
            direct |= 1 << pos[s]
        below[node] = via
        desc[node] = via | direct

    reduced = InclusionGraph()
    for a in g.nodes:
        reduced.add_node(a)
        for c in g.successors(a):
            if not below[a] >> pos[c] & 1:
                reduced.add_edge(a, c, g.stored(a, c))
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
