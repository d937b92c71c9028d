"""Semantic approximation for characters without known meaning.

Starting at an unannotated class, walk the inclusion graph toward its
subcharacters.  Each path stops at the first node carrying a synset
annotation; that node contributes its synsets with a weight equal to the
product of edge semanticities along the path, discounted by the path
length.  Summed per synset and normalized, this gives a distribution
over synset ids that stands in for the unknown character's meaning.  The
paths are summed one length at a time, so a query reads at most
``max_depth * edges`` semanticities however many paths there are.
"""

from __future__ import annotations

from typing import Mapping

from .errors import DataError, InputError
from .freqlists import ordered_sum
from .graphcore import CHAIN_KINDS, InclusionGraph

SynsetVector = dict[str, float]

DEFAULT_MAX_DEPTH = 4
DIRECTIONS = ("sub", "super")
DEFAULT_DIRECTION = "sub"


def _normalize(weights: SynsetVector) -> SynsetVector:
    total = ordered_sum(weights.values())
    if total <= 0:
        return {}
    return {sid: w / total for sid, w in weights.items()}


def semantic_approximation(
    g: InclusionGraph,
    annotations: Mapping[int, set[str]],
    node: int,
    max_depth: int = DEFAULT_MAX_DEPTH,
    direction: str = DEFAULT_DIRECTION,
) -> SynsetVector:
    """Distribution over synset ids approximating ``node``'s meaning.

    Paths of length <= ``max_depth`` lead from ``node`` along incoming
    edges (``direction="sub"``, toward subcharacters) or outgoing edges
    (``direction="super"``).  A path contributes at its first annotated
    node: every synset of that node gains
    (product of edge S along the path) / (path length).  The result sums
    to 1, or is empty when no annotated node is reachable.  An annotated
    start node returns its own synsets, uniformly weighted.  ``g`` must be
    acyclic, as every loaded graph is: no path may revisit a node.
    """
    if direction not in DIRECTIONS:
        raise InputError(f"direction must be {' or '.join(map(repr, DIRECTIONS))}, "
                         f"got {direction!r}")
    if max_depth < 1:
        raise InputError("max_depth must be >= 1")
    if node not in g:
        raise DataError(f"node {node} not in graph")

    own = annotations.get(node)
    if own:
        return _normalize({sid: 1.0 for sid in own})

    neighbors = g.predecessors if direction == "sub" else g.successors
    s_of = CHAIN_KINDS["semantic"].weight

    weights: SynsetVector = {}
    # end node of unannotated paths of the current length -> their summed S-products
    frontier = {node: 1.0}
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        reached: dict[int, float] = {}
        for current, product in frontier.items():
            for nxt in sorted(neighbors(current)):
                sub, sup = (nxt, current) if direction == "sub" else (current, nxt)
                p = product * s_of(g, sub, sup)
                synsets = annotations.get(nxt)
                if synsets:  # the first annotated node ends the path
                    for sid in synsets:
                        weights[sid] = weights.get(sid, 0.0) + p / depth
                else:
                    reached[nxt] = reached.get(nxt, 0.0) + p
        frontier = reached
    return _normalize(weights)
