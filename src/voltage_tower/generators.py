"""Constructors and recognizers for the standard graph families.

Volcano graphs are layered: a crater (cycle, looped vertex, two-loop
vertex, or bare vertex) with l-ary levels hanging below it.  An
augmented volcano has a double crater, a cycle with every edge doubled.
One recognizer reads both: it peels leaves down to the crater, then
checks crater degree l+1+extra (extra 0 for a volcano, 2 for an
augmented volcano), inner degree l+1 and one parent per vertex below
the crater.  Degree bookkeeping reads the undirected image's adjacency
from ``graph.neighbours`` and its loops from ``degree_profile``, and
counts a loop once; that convention is local to shape validation and
never leaks into Laplacians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import check_cap, require_int
from .errors import InvalidSpecError
from .graph import DirectedMultigraph, degree_profile, neighbours, require_connected
from .tower import DERIVED_EDGE_CAP, DERIVED_VERTEX_CAP

CRATER_CYCLE = "cycle"
CRATER_TWO_LOOPS = "two-loops"
CRATER_BARE = "bare"


@dataclass(frozen=True)
class CraterSpec:
    """Crater shape; a cycle of length 1 is a single vertex with one loop
    and a cycle of length 2 is two vertices joined by two edges.  Only a
    cycle reads ``length``, but every kind holds it to an int >= 1."""

    kind: str
    length: int = 1

    def __post_init__(self):
        if self.kind not in (CRATER_CYCLE, CRATER_TWO_LOOPS, CRATER_BARE):
            raise InvalidSpecError(f"unknown crater kind {self.kind!r}")
        require_int("length", self.length, 1, error=InvalidSpecError)

    @classmethod
    def cycle(cls, k: int) -> "CraterSpec":
        return cls(CRATER_CYCLE, k)

    @classmethod
    def one_loop(cls) -> "CraterSpec":
        return cls(CRATER_CYCLE, 1)

    @classmethod
    def two_loops(cls) -> "CraterSpec":
        return cls(CRATER_TWO_LOOPS)

    @classmethod
    def bare(cls) -> "CraterSpec":
        return cls(CRATER_BARE)

    @classmethod
    def from_token(cls, token: str) -> "CraterSpec":
        """The crater ``token`` names: ``cycle:K`` with K in decimal
        digits and no leading zero, ``one-loop`` (which is ``cycle:1``),
        ``two-loops`` or ``bare``."""
        if token.startswith("cycle:"):
            k = token[len("cycle:") :]
            # ASCII digits with no leading zero, as ``token`` prints K
            if k.isascii() and k.isdigit() and k[0] != "0":
                try:
                    return cls.cycle(int(k))
                except ValueError:  # past int()'s digit limit
                    pass
            raise InvalidSpecError(f"bad crater token {token!r}")
        if token == "one-loop":
            return cls.one_loop()
        if token in (CRATER_TWO_LOOPS, CRATER_BARE):
            return cls(token)
        raise InvalidSpecError(
            f"unknown crater {token!r}; use cycle:K, one-loop, two-loops or bare"
        )

    @property
    def vertex_count(self) -> int:
        return self.length if self.kind == CRATER_CYCLE else 1

    @property
    def internal_degree(self) -> int:
        """Degree of a crater vertex inside the crater, loops counted once."""
        if self.kind == CRATER_CYCLE:
            return 1 if self.length == 1 else 2
        if self.kind == CRATER_TWO_LOOPS:
            return 2
        return 0

    @property
    def token(self) -> str:
        if self.kind == CRATER_CYCLE:
            return f"cycle:{self.length}"
        return self.kind


@dataclass(frozen=True)
class VolcanoSpec:
    l: int
    depth: int
    crater: CraterSpec

    def __post_init__(self):
        require_int("l", self.l, 2, error=InvalidSpecError)
        require_int("depth", self.depth, 0, error=InvalidSpecError)


def directed_cycle(k: int) -> DirectedMultigraph:
    require_int("length", k, 1, error=InvalidSpecError)
    check_cap("cycle({count}) exceeds the cap of {cap} vertices", k, DERIVED_VERTEX_CAP)
    edges = tuple((i, (i + 1) % k) for i in range(k))
    return DirectedMultigraph(k, edges, name=f"cycle({k})")


def bouquet(loops: int) -> DirectedMultigraph:
    require_int("loops", loops, 0, error=InvalidSpecError)
    check_cap(
        "bouquet({count}) exceeds the cap of {cap} edges", loops, DERIVED_EDGE_CAP
    )
    return DirectedMultigraph(
        1, tuple((0, 0) for _ in range(loops)), name=f"bouquet({loops})"
    )


def doubled(g: DirectedMultigraph) -> DirectedMultigraph:
    """Add a reversed partner for every non-loop edge (loops stay single)."""
    extra = tuple((t, s) for s, t in g.edges if s != t)
    return DirectedMultigraph(
        g.vertex_count,
        g.edges + extra,
        g.vertex_labels,
        f"doubled({g.name})",
    )


def volcano(spec: VolcanoSpec) -> DirectedMultigraph:
    """Oriented abstract l-volcano: crater edges run v_i -> v_(i+1), level
    edges run parent -> child; children are attached in parent order so the
    construction is reproducible byte for byte."""
    crater = spec.crater
    k = crater.vertex_count
    # Children per parent, level by level: crater vertices are filled up to
    # degree l+1, deeper internal vertices carry one parent edge plus l
    # children.  Every level but the first at least doubles, so counting
    # stops past the cap within about twenty levels whatever the depth.
    fan_outs: list[int] = []
    vertices = width = k
    for level in range(1, spec.depth + 1):
        if vertices > DERIVED_VERTEX_CAP:
            break
        fan_outs.append(
            spec.l + 1 - crater.internal_degree if level == 1 else spec.l
        )
        width *= fan_outs[-1]
        vertices += width
    name = f"volcano(l={spec.l},d={spec.depth},crater={crater.token})"
    # one edge per vertex below the crater and at most k + 1 in a crater of
    # k vertices (two loops on one vertex): within the vertex cap, the edges
    # stay within theirs
    check_cap(name + " exceeds the cap of {cap} vertices", vertices, DERIVED_VERTEX_CAP)
    edges: list[tuple[int, int]] = []
    if crater.kind == CRATER_CYCLE:
        if crater.length == 1:
            edges.append((0, 0))
        else:
            edges.extend((i, (i + 1) % k) for i in range(k))
    elif crater.kind == CRATER_TWO_LOOPS:
        edges.extend([(0, 0), (0, 0)])
    next_vertex = k
    parents = list(range(k))
    for per_parent in fan_outs:
        children: list[int] = []
        for parent in parents:
            for _ in range(per_parent):
                child = next_vertex
                next_vertex += 1
                edges.append((parent, child))
                children.append(child)
        parents = children
    return DirectedMultigraph(next_vertex, tuple(edges), name=name)


def total_degree(g: DirectedMultigraph) -> int:
    """Sum of undirected vertex degrees with loops counted once."""
    loops = sum(1 for s, t in g.edges if s == t)
    return 2 * len(g.edges) - loops


def volcano_total_degree(spec: VolcanoSpec) -> int:
    """Closed form for the total degree of a generated volcano.

    Cycle crater of length k (or two loops, k = 1): 2k l^d.  One-loop
    crater: (2 l^(d+1) - l - 1) / (l - 1).  Bare crater: 2 (l+1)(l^d - 1)
    / (l - 1).
    """
    l, d = spec.l, spec.depth
    crater = spec.crater
    if crater.kind == CRATER_CYCLE and crater.length == 1:
        return (2 * l ** (d + 1) - l - 1) // (l - 1)
    if crater.kind == CRATER_BARE:
        return 2 * (l + 1) * (l**d - 1) // (l - 1)
    k = crater.vertex_count
    return 2 * k * l**d


@dataclass(frozen=True)
class VolcanoShape:
    """Result of recognizing a volcano; ``l`` is None at depth 0 since a
    bare crater carries no branching information."""

    l: Optional[int]
    depth: int
    crater_kind: str
    crater_length: int


@dataclass(frozen=True)
class AugmentedVolcanoShape:
    l: Optional[int]
    depth: int
    crater_length: int


def _cycle_length(
    nbrs: list[dict[int, int]], loops: tuple[int, ...], vertices: set[int], mult: int
) -> Optional[int]:
    """Length of the loop-free cycle induced on ``vertices`` whose edges
    all have multiplicity ``mult``, or None; two vertices sharing 2*mult
    edges count as a cycle of length 2.

    ``vertices`` must induce a connected subgraph, as a connected graph
    peeled of leaves does; then two inside neighbors at every vertex
    close one cycle through all of them.
    """
    if len(vertices) < 2 or any(loops[v] for v in vertices):
        return None
    if len(vertices) == 2:
        u, v = vertices
        return 2 if nbrs[u].get(v) == 2 * mult else None
    for v in vertices:
        inside = [m for w, m in nbrs[v].items() if w in vertices]
        if inside != [mult, mult]:
            return None
    return len(vertices)


def _classify_crater(
    nbrs: list[dict[int, int]], loops: tuple[int, ...], vertices: set[int]
) -> Optional[tuple[str, int]]:
    """(kind, length) of the crater induced on ``vertices``, or None."""
    if len(vertices) == 1:
        (v,) = vertices
        kinds = (CRATER_BARE, CRATER_CYCLE, CRATER_TWO_LOOPS)
        return (kinds[loops[v]], 1) if loops[v] < len(kinds) else None
    length = _cycle_length(nbrs, loops, vertices, 1)
    return None if length is None else (CRATER_CYCLE, length)


def _recognize(g: DirectedMultigraph, classify, extra: int):
    """(l, depth, crater) of ``g`` as a crater with l-ary levels below,
    whose crater vertices have degree l+1+extra, or None.

    Degree-1 loop-free vertices are peeled round by round until
    ``classify(nbrs, loops, remaining)`` returns the crater; each round is
    one level, the first the deepest.  Inner vertices have degree l+1 and
    leaves degree 1, and edges join adjacent levels only.  l is None at
    depth 0.
    """
    require_connected(g)
    nbrs, loops = neighbours(g), degree_profile(g).loop_count
    # degrees in g, loops once; ``degree`` keeps only the edges still left
    full = [sum(c.values()) + k for c, k in zip(nbrs, loops)]
    degree = list(full)
    remaining = set(range(g.vertex_count))
    levels: list[set[int]] = []
    while (crater := classify(nbrs, loops, remaining)) is None:
        leaves = {v for v in remaining if degree[v] == 1 and not loops[v]}
        if not leaves:
            return None
        for v in leaves:
            for w, mult in nbrs[v].items():
                if w in remaining and w not in leaves:
                    degree[w] -= mult
        remaining -= leaves
        levels.append(leaves)
    depth = len(levels)
    if depth == 0:
        return None, 0, crater
    level_of = dict.fromkeys(remaining, 0)
    for i, level in enumerate(levels):
        level_of.update(dict.fromkeys(level, depth - i))
    # a peeled vertex had no loop and one edge left, toward the crater: two
    # leaves of one round joined to each other would, with what hangs below
    # them, be a component of their own.  So every vertex below the crater
    # is loop-free with one parent above it, and l >= 1.
    l = full[min(remaining)] - 1 - extra
    expected = {0: l + 1 + extra, depth: 1}
    for v, lv in level_of.items():
        if full[v] != expected.get(lv, l + 1) or any(
            abs(lv - level_of[w]) > 1 for w in nbrs[v]
        ):
            return None
    return l, depth, crater


def recognize_volcano(g: DirectedMultigraph) -> Optional[VolcanoShape]:
    """Classify ``g`` (treated as undirected) as an abstract l-volcano."""
    found = _recognize(g, _classify_crater, 0)
    if found is None:
        return None
    l, depth, (kind, length) = found
    return VolcanoShape(l, depth, kind, length)


def recognize_augmented_volcano(
    g: DirectedMultigraph,
) -> Optional[AugmentedVolcanoShape]:
    """Classify ``g`` as an augmented volcano: a double crater with l-ary
    levels below, crater degree l+3."""
    found = _recognize(g, lambda *args: _cycle_length(*args, 2), 2)
    return None if found is None else AugmentedVolcanoShape(*found)


def is_double_crater(g: DirectedMultigraph) -> Optional[int]:
    """Length of ``g`` as a double crater (every cycle edge doubled), or
    None when the shape does not match."""
    require_connected(g)
    loops = degree_profile(g).loop_count
    return _cycle_length(neighbours(g), loops, set(range(g.vertex_count)), 2)


def is_augmented_volcano(g: DirectedMultigraph) -> bool:
    return recognize_augmented_volcano(g) is not None
