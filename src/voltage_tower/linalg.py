"""Exact big-integer linear algebra.

Everything here is exact: determinants by fraction-free elimination,
the graph matrices M(k) = Dk - Ak^2 - A^t and their one elimination plan,
both read off the edge list, spanning-tree counts as a pivot of the
Laplacian M(1), integer Newton interpolation at integer nodes, and
resultants of an integer polynomial against the cyclotomic polynomials
Phi_{p^k} by root powering: one Newton-identity step and one
(p-1) x (p-1) determinant per k.  No floating point anywhere; p-adic valuations
downstream depend on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .arith import check_cap, require_int, require_prime
from .backend import Schedule, bareiss_determinant, replay_determinant
from .errors import (
    NonIntegralInterpolationError,
    NotSquareError,
    StructureViolationError,
    ZeroPolynomialError,
)
from .graph import DirectedMultigraph, _union_find, neighbours, require_connected

BRUTE_FORCE_EDGE_CAP = 16


@dataclass(frozen=True)
class IntMatrix:
    """Dense arbitrary-precision integer matrix, entries row-major.  The
    entries must be ``int`` (a bool is not one); nothing is converted."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            require_int("matrix entry", e)
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must be rows * cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(itertools.chain.from_iterable(rows)))

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [
            list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)
        ]


def determinant(m: IntMatrix) -> int:
    """Exact determinant (Bareiss fraction-free elimination)."""
    if m.rows != m.cols:
        raise NotSquareError(f"matrix is {m.rows}x{m.cols}")
    return bareiss_determinant(m.to_rows())


def _cleared_matrix(g: DirectedMultigraph, k: int) -> list[list[int]]:
    """M(k) = Dk - Ak^2 - A^t (D total degrees, loops counted twice; A
    adjacency, loops once), four updates per edge.  A loop's 2k - k^2 - 1
    vanishes at k = 1, so M(1) is the Laplacian of the undirected image."""
    n = g.vertex_count
    m = [[0] * n for _ in range(n)]
    for s, t in g.edges:
        m[s][s] += k
        m[t][t] += k
        m[s][t] -= k * k
        m[t][s] -= 1
    return m


def elimination_schedule(g: DirectedMultigraph) -> Schedule:
    """Greedy minimum-degree elimination of the undirected image of ``g``,
    loops dropped, ties broken by the least vertex, as the schedule that
    ``replay_determinant`` follows on every M(k), k != 0.  A vertex's
    neighbours are the far ends of its non-loop edges, both ways: the
    off-diagonal pattern of M(k), whose entry -k^2 a_st - a_ts adds terms
    of one sign and never cancels; they are read off ``neighbours``, a
    set per vertex.  Eliminating a vertex joins its remaining neighbours,
    as elimination fills them in; taking the least-connected vertex first
    keeps that fill small."""
    nbrs = [set(c) for c in neighbours(g)]
    left = set(range(g.vertex_count))
    schedule = []
    while left:
        v = min(left, key=lambda u: (len(nbrs[u]), u))
        left.remove(v)
        updates = []
        for u in sorted(nbrs[v]):
            nbrs[u] |= nbrs[v]
            nbrs[u] -= {u, v}
            updates.append((u, sorted(nbrs[u] | {u})))
        schedule.append((v, sorted(nbrs[v] | {v}), updates))
    return schedule


def kirchhoff_count(
    g: DirectedMultigraph, row: int = 0, col: int = 0
) -> int:
    """Number of spanning trees of the undirected image via the
    matrix-tree theorem: the last-but-one pivot of the Laplacian M(1) on
    the graph's schedule, a principal cofactor; all of them are equal, so
    ``row`` selects nothing.  The minor is positive definite, so a zero
    pivot or a count below 1 raises StructureViolationError.
    ``graph.require_connected`` comes first (EmptyGraphError for no
    vertices, NotConnectedError for more than one component), then the
    indices: ``row`` that is not an int in range(vertex_count) (a bool is
    not one), or ``col`` other than ``row``, raises ValueError."""
    require_connected(g)
    require_int("row", row, 0, g.vertex_count)
    require_int("col", col, row, row + 1)
    return _kappa(g, elimination_schedule(g))


def _kappa(g: DirectedMultigraph, schedule: Schedule) -> int:
    """:func:`kirchhoff_count` of a connected ``g`` on its ``schedule``:
    M(1) replayed on all but the last pivot."""
    count = replay_determinant(schedule[:-1], _cleared_matrix(g, 1))
    if count is None or count < 1:
        raise StructureViolationError("spanning-tree count must be positive")
    return count


def brute_force_spanning_trees(g: DirectedMultigraph) -> int:
    """Oracle: count the (|V|-1)-subsets of non-loop edges that connect
    the graph, that is, the spanning trees, each decided by the union-find
    behind ``graph.components`` with no graph built.  Capped at 16 edges;
    a disconnected graph raises as ``graph.require_connected`` does."""
    check_cap(
        "{count} edges exceeds the cap of {cap}", len(g.edges), BRUTE_FORCE_EDGE_CAP
    )
    require_connected(g)
    n = g.vertex_count
    non_loop = [(s, t) for s, t in g.edges if s != t]
    return sum(
        len({root for root, _ in map(_union_find(n, subset), range(n))}) == 1
        for subset in itertools.combinations(non_loop, n - 1)
    )


def _interpolate_integer(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    # Divided differences of an integer polynomial at distinct integer
    # nodes are integers (complete homogeneous symmetric polynomials of the
    # nodes), so every division is exact exactly when the interpolating
    # polynomial has integer coefficients.
    npts = len(xs)
    c = list(ys)
    for k in range(1, npts):
        for i in range(npts - 1, k - 1, -1):
            q, rem = divmod(c[i] - c[i - 1], xs[i] - xs[i - k])
            if rem:
                raise NonIntegralInterpolationError(
                    f"divided difference of order {k} is not an integer: "
                    f"no integer polynomial of degree < {npts} fits the data"
                )
            c[i] = q
    # Horner on the Newton form: c[0] + (T - x0)(c[1] + (T - x1)(...))
    coeffs: list[int] = []
    for i in range(npts - 1, -1, -1):
        x = xs[i]
        coeffs.append(0)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k - 1] - x * coeffs[k]
        coeffs[0] = c[i] - x * coeffs[0]
    return coeffs


def _root_power(f: list[int], p: int) -> list[int]:
    # f = c prod (x - r), ascending, to c^p prod (x - r^p).  The monic
    # c^(m-1) f(x / c) = x^m + a_1 x^(m-1) + ... + a_m has the algebraic-
    # integer roots c r; Newton's identities give their power sums s_j and,
    # from s_p, s_2p, ..., the coefficients b_k of prod (x - (c r)^p).
    # b_k / c^(p(k-1)) is an integer, for c^p prod (x^p - r^p) is
    # +-prod_{w^p = 1} f(w x).
    m, c = len(f) - 1, f[-1]
    a = [1] + [f[m - i] * c ** (i - 1) for i in range(1, m + 1)]
    s = [m]
    for j in range(1, p * m + 1):
        total = sum(a[i] * s[j - i] for i in range(1, min(j, m + 1)))
        s.append(-total - (j * a[j] if j <= m else 0))
    b = [1]
    out = [c**p]  # descending
    for k in range(1, m + 1):
        b_k, rem = divmod(-sum(b[i] * s[p * (k - i)] for i in range(k)), k)
        coeff, rem_c = divmod(b_k, c ** (p * (k - 1)))
        if rem or rem_c:
            raise StructureViolationError(
                f"root-power step: coefficient of x^{m - k} is not an integer"
            )
        b.append(b_k)
        out.append(coeff)
    return out[::-1]


def cyclotomic_resultants(
    poly: Sequence[int], p: int, levels: int
) -> list[int]:
    """|Res(Phi_{p^k}, Q)| for k = 1..levels, in integers.

    Let Q_j = c^(p^j) prod (x - a^(p^j)) over the roots a of Q = c prod
    (x - a).  Since Phi_{p^k}(x) = Phi_p(x^(p^(k-1))),

        |Res(Phi_{p^k}, Q)| = |Res(Phi_p, Q_{k-1})|,

    the determinant of multiplication by Q_{k-1} on Z[x]/Phi_p: with Q_{k-1}
    folded mod x^p - 1 into g, the (p-1) x (p-1) matrix with entry (j, i) =
    g[(j-i) mod p] - g[p-1-i].  A level costs one Newton-identity step
    Q_{k-1} -> Q_k on the p deg Q power sums of its roots and one
    (p-1) x (p-1) Bareiss determinant; a factor Phi_{p^k} of Q gives 0.  The
    step's divisions are exact, so a remainder raises StructureViolationError.
    ``poly`` is Q's coefficients, x^0 first, trailing zeros ignored; a
    coefficient or ``levels`` that is not an int (a bool is not one), or a
    negative ``levels``, raises ValueError, and a Q with no nonzero
    coefficient ZeroPolynomialError.
    """
    require_prime(p)
    require_int("levels", levels, 0)
    f = list(poly)
    for c in f:
        require_int("coefficient", c)
    while f and f[-1] == 0:
        f.pop()
    if not f:
        raise ZeroPolynomialError("resultant against the zero polynomial")
    out = []
    for k in range(1, levels + 1):
        g = [sum(f[r::p]) for r in range(p)]
        rows = [
            [g[(j - i) % p] - g[p - 1 - i] for i in range(p - 1)]
            for j in range(p - 1)
        ]
        out.append(abs(bareiss_determinant(rows)))
        if k < levels:
            f = _root_power(f, p)
    return out
