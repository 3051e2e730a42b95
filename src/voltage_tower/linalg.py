"""Exact big-integer linear algebra.

Everything here is exact: determinants by fraction-free elimination,
spanning-tree counts through the Laplacian, Smith normal form for Picard
torsion, determinants of integer matrix polynomials by evaluation at
integer points followed by integer Newton interpolation, and resultants
of an integer polynomial against the cyclotomic polynomials Phi_{p^k}
through powers of its scaled companion matrix.  No floating point
anywhere; p-adic valuations downstream depend on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .arith import is_prime
from .backend import bareiss_determinant
from .errors import (
    InvalidPrimeError,
    NonIntegralInterpolationError,
    NotConnectedError,
    NotSquareError,
    StructureViolationError,
    TooLargeError,
    ZeroPolynomialError,
)
from .graph import DirectedMultigraph, is_connected
from .polynomial import IntPolynomial

BRUTE_FORCE_EDGE_CAP = 16
# Derived vertices r * p^n a derived graph or a tower climb may reach; the
# work grows with it whether the levels are built or read off resultants.
DERIVED_VERTEX_CAP = 100_000


@dataclass(frozen=True)
class IntMatrix:
    """Dense arbitrary-precision integer matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(int(e) for e in self.entries)
        )
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

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]


def determinant(m: IntMatrix) -> int:
    """Exact determinant (Bareiss fraction-free elimination)."""
    if m.rows != m.cols:
        raise NotSquareError(f"matrix is {m.rows}x{m.cols}")
    return bareiss_determinant(m.to_rows())


def _laplacian_rows(g: DirectedMultigraph) -> list[list[int]]:
    # Laplacian of the undirected image; loops are dropped (they belong to
    # no spanning tree and would cancel in D - A - A^t anyway).
    n = g.vertex_count
    lap = [[0] * n for _ in range(n)]
    for s, t in g.edges:
        if s == t:
            continue
        lap[s][s] += 1
        lap[t][t] += 1
        lap[s][t] -= 1
        lap[t][s] -= 1
    return lap


def kirchhoff_count(
    g: DirectedMultigraph, row: int = 0, col: int = 0
) -> int:
    """Number of spanning trees of the undirected image via the
    matrix-tree theorem: (-1)^(row+col) det of the Laplacian minor."""
    if not is_connected(g):
        raise NotConnectedError("spanning trees need a connected graph")
    lap = _laplacian_rows(g)
    minor = [
        [x for j, x in enumerate(r) if j != col]
        for i, r in enumerate(lap)
        if i != row
    ]
    det = bareiss_determinant(minor)
    count = -det if (row + col) % 2 else det
    if count < 1:
        raise StructureViolationError("spanning-tree count must be positive")
    return count


def brute_force_spanning_trees(g: DirectedMultigraph) -> int:
    """Oracle: count (|V|-1)-subsets of non-loop edges that form a
    spanning tree, checked with union-find.  Capped at 16 edges."""
    if len(g.edges) > BRUTE_FORCE_EDGE_CAP:
        raise TooLargeError(
            f"{len(g.edges)} edges exceeds the cap of {BRUTE_FORCE_EDGE_CAP}"
        )
    if not is_connected(g):
        raise NotConnectedError("spanning trees need a connected graph")
    n = g.vertex_count
    non_loop = [(s, t) for s, t in g.edges if s != t]
    need = n - 1
    count = 0
    for subset in itertools.combinations(non_loop, need):
        parent = list(range(n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        for s, t in subset:
            rs, rt = find(s), find(t)
            if rs == rt:
                acyclic = False
                break
            parent[rs] = rt
        if acyclic:
            count += 1
    return count


def smith_normal_form(m: IntMatrix) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix (non-negative,
    zeros last)."""
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    size = min(nrows, ncols)
    factors = []
    t = 0
    while t < size:
        # locate a nonzero entry of least magnitude in the trailing block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            dirty = False
            for i in range(t + 1, nrows):
                q = a[i][t] // a[t][t]
                if q:
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, ncols):
                q = a[t][j] // a[t][t]
                if q:
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    dirty = True
            if dirty:
                pivot = min(
                    (
                        (i, j)
                        for i in range(t, nrows)
                        for j in range(t, ncols)
                        if a[i][j] != 0
                    ),
                    key=lambda ij: abs(a[ij[0]][ij[1]]),
                )
                continue
            # pivot must divide the rest of the block for the divisibility
            # chain; if not, fold the offending row in and restart
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
            pivot = (t, t)
        factors.append(abs(a[t][t]))
        t += 1
    factors.extend([0] * (size - len(factors)))
    return factors


def _default_points(count: int) -> list[int]:
    # 0, 1, -1, 2, -2, ...
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts[:count]


def poly_matrix_determinant(
    coefficients: Sequence[Sequence[Sequence[int]]],
) -> IntPolynomial:
    """Determinant of the matrix polynomial C_0 + C_1 T + ... + C_d T^d.

    The C_k are square integer matrices of one size n, so every entry has
    degree at most d and the determinant degree at most n * d.  The sum is
    evaluated at the n * d + 1 integers 0, 1, -1, 2, -2, ..., each
    evaluation's determinant is taken exactly, and the coefficients are
    recovered by Newton interpolation in integers.
    """
    if not coefficients:
        raise ValueError("need at least one coefficient matrix")
    n = len(coefficients[0])
    if any(
        len(c) != n or any(len(row) != n for row in c) for c in coefficients
    ):
        raise NotSquareError("coefficient matrices are not square of one size")
    xs = _default_points(n * (len(coefficients) - 1) + 1)
    ys = []
    for x in xs:
        # Horner over the coefficient matrices, entry by entry
        m = coefficients[-1]
        for c in reversed(coefficients[:-1]):
            m = [[a * x + b for a, b in zip(mr, cr)] for mr, cr in zip(m, c)]
        ys.append(bareiss_determinant(m))
    return _interpolate_integer(xs, ys)


def _interpolate_integer(xs: Sequence[int], ys: Sequence[int]) -> IntPolynomial:
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
    return IntPolynomial(coeffs)


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _matrix_power(a: list[list[int]], e: int) -> list[list[int]]:
    # binary powering, e >= 1
    result = None
    while e:
        if e & 1:
            result = a if result is None else _matmul(result, a)
        e >>= 1
        if e:
            a = _matmul(a, a)
    return result


def cyclotomic_resultants(
    poly: IntPolynomial, p: int, first: int, last: int
) -> list[int]:
    """|Res(Phi_{p^k}, Q)| for k = first..last (first >= 1), in integers.

    With c the leading coefficient of Q and m its degree, M = c *
    companion(Q / c) is the integer m x m matrix with c on the subdiagonal
    and -q_i in the last column; the roots of Q are the eigenvalues of
    M / c.  Phi_{p^k}(x) = sum_{j<p} x^(js) with s = p^(k-1) has degree
    N = (p - 1)s, so clearing c^N from Phi_{p^k}(M / c) gives

        Res(Phi_{p^k}, Q) = +-c^N prod_{Q(a) = 0} Phi_{p^k}(a)
                          = +-det(sum_{j<p} c^((p-1-j)s) M^(js)) / c^(N(m-1)).

    Each level costs p - 1 matrix products and one m x m Bareiss
    determinant: the p-th power of this level's M^s is the next level's.
    The division is exact by the identity, so a remainder raises
    StructureViolationError.
    """
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    if first < 1:
        raise ValueError("cyclotomic levels start at 1")
    if poly.is_zero:
        raise ZeroPolynomialError("resultant against the zero polynomial")
    coeffs = poly.coefficients
    m = poly.degree
    c = coeffs[-1]
    companion = [[c if j == i - 1 else 0 for j in range(m)] for i in range(m)]
    for i in range(m):
        companion[i][m - 1] = -coeffs[i]
    power = _matrix_power(companion, p ** (first - 1))
    out = []
    for k in range(first, last + 1):
        s = p ** (k - 1)
        a = c**s
        total = [
            [a ** (p - 1) if i == j else 0 for j in range(m)] for i in range(m)
        ]
        step = power  # M^(js), j = 1..p-1, then M^(ps) for the next level
        for j in range(1, p):
            scale = a ** (p - 1 - j)
            total = [
                [t + scale * x for t, x in zip(t_row, x_row)]
                for t_row, x_row in zip(total, step)
            ]
            if j < p - 1 or k < last:
                step = _matmul(step, power)
        power = step
        n_deg = (p - 1) * s
        # det * c^N / c^(N m) is the docstring's det / c^(N(m-1)), and also
        # holds for a constant Q (m = 0, empty determinant 1)
        value, rem = divmod(
            bareiss_determinant(total) * c**n_deg, c ** (n_deg * m)
        )
        if rem:
            raise StructureViolationError(
                f"resultant against Phi_{p}^{k} is not an integer"
            )
        out.append(abs(value))
    return out
