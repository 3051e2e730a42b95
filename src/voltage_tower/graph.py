"""Directed multigraph data model and the cycle-weight computation.

A graph is a dense vertex range ``0..vertex_count-1`` plus an ordered edge
list; loops and parallel edges are allowed and edge identity is the list
index.  The doubled graph (every edge plus an implicit reverse partner of
weight -1) is never materialized: every computation that needs it works
with the +1/-1 sign convention directly.  Connectivity has one rule,
:func:`require_connected`, decided by a union-find over the edge list
that builds no adjacency and also carries the cycle weights' potentials.
The undirected image's adjacency comes from one builder,
:func:`neighbours`, which only the walks that need neighbours read: the
elimination planner and the volcano recognizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import EmptyGraphError, NotConnectedError


@dataclass(frozen=True)
class DirectedMultigraph:
    """Finite directed multigraph with ordered edges: the one graph kind.
    Each edge (s, t) runs from s to t, the orientation along which a
    constant voltage assignment gives it its value.

    ``vertex_labels``, when present, is purely decorative (one string per
    vertex); ``name`` identifies the graph in documents and reports.

    The constructor is the one graph validator, and it converts nothing:
    ``vertex_count`` and the endpoints are ``int`` (not bool), ``edges`` and
    ``vertex_labels`` are tuples, and anything else raises ValueError.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    vertex_labels: Optional[tuple[str, ...]] = None
    name: str = "graph"

    def __post_init__(self):
        n, labels = self.vertex_count, self.vertex_labels
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex_count must be an integer >= 0, not {n!r}")
        if type(self.edges) is not tuple:
            raise ValueError("edges must be a tuple")
        for e in self.edges:
            if not (
                type(e) is tuple
                and len(e) == 2
                and type(e[0]) is type(e[1]) is int
                and 0 <= e[0] < n
                and 0 <= e[1] < n
            ):
                raise ValueError(f"bad edge {e!r} for {n} vertices")
        if labels is not None and not (
            type(labels) is tuple
            and len(labels) == n
            and all(type(x) is str for x in labels)
        ):
            raise ValueError(f"vertex_labels must be None or {n} strings")
        if type(self.name) is not str:
            raise ValueError("name must be a string")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DegreeProfile:
    in_deg: tuple[int, ...]
    out_deg: tuple[int, ...]
    loop_count: tuple[int, ...]


@dataclass(frozen=True)
class CycleWeightProfile:
    """Classification of the cycle weights of the doubled graph.

    ``kind`` is "acyclic" when the undirected image is a forest, else
    "cyclic" with ``weight_gcd`` the non-negative generator of the subgroup
    of the integers generated by all cycle weights (0 when every cycle has
    weight 0).
    """

    kind: str
    weight_gcd: int = 0

    ACYCLIC = "acyclic"
    CYCLIC = "cyclic"

    @property
    def is_acyclic(self) -> bool:
        return self.kind == self.ACYCLIC


def require_connected(g: DirectedMultigraph) -> None:
    """The one connectivity rule: every number this library computes is
    defined over a connected base.  A graph with no vertices raises
    EmptyGraphError (from :func:`components`); one whose undirected image
    has more than one component raises NotConnectedError, naming the
    graph and its number of components."""
    count = len(components(g))
    if count > 1:
        raise NotConnectedError(
            f"{g.name} is not connected: its undirected image has "
            f"{count} components"
        )


def degree_profile(g: DirectedMultigraph) -> DegreeProfile:
    ins = [0] * g.vertex_count
    outs = [0] * g.vertex_count
    loops = [0] * g.vertex_count
    for s, t in g.edges:
        outs[s] += 1
        ins[t] += 1
        if s == t:
            loops[s] += 1
    return DegreeProfile(tuple(ins), tuple(outs), tuple(loops))


def neighbours(g: DirectedMultigraph) -> list[dict[int, int]]:
    """The one adjacency of the undirected image: for each vertex, the far
    ends of its non-loop edges, both ways, each with its multiplicity.
    Loops are left to ``degree_profile(g).loop_count``.  The maps are
    plain dicts: a Counter's constructor would cost more per vertex than
    counting a sparse graph's edges."""
    nbrs: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for s, t in g.edges:
        if s != t:
            nbrs[s].setdefault(t, 0)
            nbrs[t].setdefault(s, 0)
            nbrs[s][t] += 1
            nbrs[t][s] += 1
    return nbrs


def _union_find(
    vertex_count: int, edges: Iterable[tuple[int, int]]
) -> Callable[[int], tuple[int, int]]:
    """Union ``edges`` with path halving and return the find: ``find(v)``
    is (root, theta).  Two vertices have one root exactly when they lie in
    one component of the undirected image, and theta is the signed edge
    count of a tree path from the root to v: traversing an edge along its
    orientation counts +1, against it -1.  No adjacency is built."""
    parent = list(range(vertex_count))
    up = [0] * vertex_count  # theta(v) - theta(parent[v]); 0 at a root

    def find(v: int) -> tuple[int, int]:
        theta = 0
        while parent[v] != v:
            up[v] += up[parent[v]]
            theta += up[v]
            parent[v] = v = parent[parent[v]]
        return v, theta

    for s, t in edges:
        root_s, theta_s = find(s)
        root_t, theta_t = find(t)
        if root_s != root_t:
            parent[root_t] = root_s
            up[root_t] = theta_s + 1 - theta_t
    return find


def components(g: DirectedMultigraph) -> list[list[int]]:
    """Connected components of the undirected image, each sorted, ordered
    by smallest vertex, from :func:`_union_find` over ``g.edges``.  A
    graph with no vertices raises EmptyGraphError."""
    if g.vertex_count == 0:
        raise EmptyGraphError("graph has no vertices")
    find = _union_find(g.vertex_count, g.edges)
    groups: dict[int, list[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(find(v)[0], []).append(v)
    return list(groups.values())


def subgraph(g: DirectedMultigraph, vertices: Sequence[int]) -> DirectedMultigraph:
    """Induced subgraph on ``vertices``, reindexed densely in the given
    order; edge order is inherited from ``g``."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = tuple(
        (index[s], index[t]) for s, t in g.edges if s in index and t in index
    )
    labels = None
    if g.vertex_labels is not None:
        labels = tuple(g.vertex_labels[v] for v in vertices)
    name = f"{g.name}[component]"
    return DirectedMultigraph(len(vertices), edges, labels, name)


def cycle_weight_profile(g: DirectedMultigraph) -> CycleWeightProfile:
    """Cycle-weight lattice of the doubled graph, from one union-find.

    :func:`_union_find` gives each vertex its root and the signed weight
    theta of its tree path.  When the roots show no vertices or more than
    one component, :func:`require_connected` raises EmptyGraphError or
    NotConnectedError.  A connected graph is acyclic exactly when it has
    r - 1 edges.  Otherwise the lattice is generated by the fundamental
    cycle weights theta(u) + 1 - theta(w) of the edges (u, w); a tree
    edge's is 0, so the gcd runs over every edge.
    """
    n = g.vertex_count
    found = list(map(_union_find(n, g.edges), range(n)))
    if len({root for root, _ in found}) != 1:
        require_connected(g)
    if len(g.edges) == n - 1:
        return CycleWeightProfile(CycleWeightProfile.ACYCLIC)
    gcd = math.gcd(*(found[u][1] + 1 - found[w][1] for u, w in g.edges))
    return CycleWeightProfile(CycleWeightProfile.CYCLIC, gcd)


def is_total_degree_constant(g: DirectedMultigraph) -> Optional[int]:
    """The common value of in-degree + out-degree, or None if it varies."""
    return _constant_total_degree(degree_profile(g))


def _constant_total_degree(prof: DegreeProfile) -> Optional[int]:
    """:func:`is_total_degree_constant` read off a profile already built."""
    totals = {i + o for i, o in zip(prof.in_deg, prof.out_deg)}
    if len(totals) == 1:
        return totals.pop()
    return None


def adjacency_matrix(g: DirectedMultigraph) -> list[list[int]]:
    """Entry (i, j) counts edges i -> j; a loop contributes 1 to the
    diagonal."""
    a = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for s, t in g.edges:
        a[s][t] += 1
    return a


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def is_adjacency_normal(g: DirectedMultigraph) -> bool:
    a = adjacency_matrix(g)
    at = [list(col) for col in zip(*a)] if a else []
    return _matmul(a, at) == _matmul(at, a)
