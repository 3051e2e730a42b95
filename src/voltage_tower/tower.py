"""Constant voltage assignments and derived-graph towers.

The derived graph at level n places one sheet of the base over every
residue ``sigma`` mod p^n and sends each base edge (s, t) to
``(s, sigma) -> (t, sigma + param)``.  Vertex ``(v, sigma)`` lives at index
``sigma * base_vertex_count + v`` so repeated runs are bit-identical.
Edges are grouped by base edge, then by sheet: the lift of base edge i
over sheet sigma is derived edge ``i * p^n + sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .arith import _stated, check_cap, require_int, require_prime, valuation
from .errors import NoTowerError, NotAUnitError, StructureViolationError
from .graph import (
    CycleWeightProfile,
    DirectedMultigraph,
    components,
    cycle_weight_profile,
    subgraph,
)


@dataclass(frozen=True)
class ConstantVoltage:
    """Every edge receives the same value ``param`` (an int standing for
    a p-adic integer, not a bool); towers need ``param`` coprime to
    ``p``."""

    p: int
    param: int = 1

    def __post_init__(self):
        require_prime(self.p)
        require_int("voltage parameter", self.param)

    @property
    def is_unit(self) -> bool:
        return math.gcd(self.param, self.p) == 1


@dataclass(frozen=True)
class DerivedGraph:
    graph: DirectedMultigraph
    base_vertex_count: int
    level: int

    @property
    def modulus(self) -> int:
        """p^level, the size of the deck group."""
        if self.base_vertex_count == 0:
            return 1
        return self.graph.vertex_count // self.base_vertex_count


# Derived vertices r * p^n a derived graph or a tower climb may reach; the
# work grows with it whether the levels are built or read off resultants.
DERIVED_VERTEX_CAP = 100_000
# Derived edges |E| * p^n a derived graph may hold: five per derived vertex
# at the vertex cap.  A one-vertex base with many loops stays within the
# vertex cap at any level, so its edges need a cap of their own.
DERIVED_EDGE_CAP = 500_000
# Base vertices r of a characteristic polynomial, r - c + 1 replays of one
# elimination schedule on r x r matrices, c the least x-order of a Leibniz
# term of det M(x) (0 for the complete digraph): at r = 64, 0.35 s for a
# random graph with 128 edges (timed with r + 1 replays) and 2.9 s for the
# complete digraph, whose scheduled fill is 85,344 entries against 4,198
# (2-vCPU VM, Python 3.11).  The cost follows the fill, so dense graphs set
# the cap.
CHARPOLY_VERTEX_CAP = 64


def check_derived_size(base_vertices: int, p: int, n: int) -> None:
    """Raise TooLargeError when base_vertices * p^n exceeds
    DERIVED_VERTEX_CAP, without computing p^n for a huge n (p >= 2)."""
    check_cap(
        "{count} * {p}^{n} derived vertices exceed the cap of {cap}",
        base_vertices,
        DERIVED_VERTEX_CAP,
        p,
        n,
    )


def derive(
    base: DirectedMultigraph, voltage: ConstantVoltage, n: int
) -> DerivedGraph:
    """Derived graph of the constant assignment modulo p^n.

    Level 0 wraps the base graph unchanged, and a base with no vertices
    gives an empty graph at any level.  Past DERIVED_VERTEX_CAP
    vertices or DERIVED_EDGE_CAP edges, TooLargeError is raised before
    anything is built.  A level that is not a non-negative int (a bool
    is not one) raises ValueError.
    """
    require_int("level", n, 0)
    check_derived_size(base.vertex_count, voltage.p, n)
    if n == 0:
        return DerivedGraph(base, base.vertex_count, 0)
    name = f"derive({base.name},p={voltage.p},n={_stated(n)})"
    if base.vertex_count == 0:
        # every sheet is empty: p^n is never formed
        return DerivedGraph(DirectedMultigraph(0, (), (), name), 0, n)
    check_cap(
        "{count} * {p}^{n} derived edges exceed the cap of {cap}",
        len(base.edges),
        DERIVED_EDGE_CAP,
        voltage.p,
        n,
    )
    modulus = voltage.p**n
    a = voltage.param % modulus
    nv = base.vertex_count
    size, shift = modulus * nv, a * nv
    # the lifts of (s, t) leave sheets 0, 1, ... in turn and reach sheets
    # a, a + 1, ..., wrapping to sheet 0 after the last
    edges = chain.from_iterable(
        zip(
            range(s, size, nv),
            chain(range(shift + t, size, nv), range(t, shift + t, nv)),
        )
        for s, t in base.edges
    )
    prefixes = [f"v{v}@" for v in range(nv)]
    labels = tuple(
        prefix + sigma
        for sigma in map(str, range(modulus))
        for prefix in prefixes
    )
    g = DirectedMultigraph(size, tuple(edges), labels, name)
    return DerivedGraph(g, nv, n)


def predicted_component_count(
    profile: CycleWeightProfile, p: int, n: int
) -> int:
    """Component count of the level-n derived graph (unit parameter),
    read off the cycle-weight lattice: the deck group acts with stabilizer
    of index p^min(n, n0), with n0 from :func:`stabilization_level`, and
    p^n when there is no tower.  p must be prime and n an int >= 0."""
    require_prime(p)
    require_int("n", n, 0)
    n0 = stabilization_level(profile, p)
    return p ** (n if n0 is None else min(n, n0))


def stabilization_level(
    profile: CycleWeightProfile, p: int
) -> Optional[int]:
    """Least level n0 past which the component count is constant, or None
    when no tower exists (forest, or every cycle weight 0); p must be
    prime."""
    require_prime(p)
    if profile.is_acyclic or profile.weight_gcd == 0:
        return None
    return valuation(profile.weight_gcd, p)


def require_tower(g: DirectedMultigraph, p: int) -> int:
    """The stabilization level n0 of the constant tower over ``g`` at p;
    NoTowerError, saying why, when there is none."""
    profile = cycle_weight_profile(g)
    n0 = stabilization_level(profile, p)
    if n0 is None:
        raise NoTowerError(
            g.name, "acyclic" if profile.is_acyclic else "zero-weight-gcd"
        )
    return n0


def tower_component(
    base: DirectedMultigraph, voltage: ConstantVoltage, n: int
) -> DirectedMultigraph:
    """The connected component of the level-n derived graph containing
    vertex (0, 0), reindexed densely; labels keep the derived names
    ``v{v}@{sigma}`` as the map back to derived indices."""
    require_tower(base, voltage.p)
    if not voltage.is_unit:
        raise NotAUnitError(
            f"parameter {voltage.param} is divisible by {voltage.p}"
        )
    derived = derive(base, voltage, n)
    for comp in components(derived.graph):
        if comp[0] == 0:
            return subgraph(derived.graph, comp)
    raise StructureViolationError("vertex 0 not found in any component")
