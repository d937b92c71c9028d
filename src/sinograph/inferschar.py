"""Semantic approximation for characters without known meaning.

Starting at an unannotated class, walk the inclusion graph toward its
subcharacters.  Each path stops at the first node carrying a synset
annotation; that node contributes its synsets with a weight equal to the
product of edge semanticities along the path, discounted by the path
length.  Summed per synset and normalized, this gives a distribution
over synset ids that stands in for the unknown character's meaning.
"""

from __future__ import annotations

from typing import Mapping

from .errors import DataError, InputError
from .graphcore import CHAIN_KINDS, InclusionGraph

SynsetVector = dict[str, float]

DEFAULT_MAX_DEPTH = 4
DIRECTIONS = ("sub", "super")
DEFAULT_DIRECTION = "sub"


def _normalize(weights: SynsetVector) -> SynsetVector:
    total = sum(weights.values())
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

    Paths of length <= ``max_depth`` are enumerated from ``node`` along
    incoming edges (``direction="sub"``, toward subcharacters) or outgoing
    edges (``direction="super"``).  A path contributes at its first
    annotated node: every synset of that node gains
    (product of edge S along the path) / (path length).  The result sums
    to 1, or is empty when no annotated node is reachable.  An annotated
    start node returns its own synsets, uniformly weighted.
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
    on_path = {node}
    # depth-first over paths, one frame per node of the current path: the
    # node, the product of S up to it and its neighbours not yet tried
    stack = [(node, 1.0, iter(sorted(neighbors(node))))]
    while stack:
        current, product, untried = stack[-1]
        nxt = next(untried, None)
        if nxt is None:
            on_path.remove(current)
            stack.pop()
            continue
        if nxt in on_path:
            continue
        depth = len(stack)
        sub, sup = (nxt, current) if direction == "sub" else (current, nxt)
        p = product * s_of(g, sub, sup)
        synsets = annotations.get(nxt)
        if synsets:  # the first annotated node ends the path
            contribution = p / depth
            for sid in synsets:
                weights[sid] = weights.get(sid, 0.0) + contribution
        elif depth < max_depth:
            on_path.add(nxt)
            stack.append((nxt, p, iter(sorted(neighbors(nxt)))))
    return _normalize(weights)
