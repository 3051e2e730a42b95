"""Tower invariants from the characteristic polynomial and from tower data.

The constant tower of a connected graph with r vertices has characteristic
power series det(D - A(1+T) - A^t(1+T)^(-1)).  Multiplying every row by
(1+T), a unit power series, clears the denominators and leaves an honest
integer polynomial P(T) = Q(1+T) of degree at most 2r, where Q(x) =
det(Dx - Ax^2 - A^t) is palindromic; its half S, with Q(x) = x^r S(x +
1/x), comes from r - c + 1 integer determinants, c the least x-order of
a Leibniz term of Q.  mu and lambda drop out of the p-adic valuations of
P's coefficients (Weierstrass preparation), and nu is fitted against
spanning-tree counts climbing the tower.

The same polynomial gives those counts, with no derived graph built.  Up
to level n0 the derived graph is p^n disjoint copies of the base, so
kappa_n0 is the base graph's Kirchhoff count.  With q = p^n0, every cycle
weight is divisible by q, so Q(x) = P(x - 1) = x^e R(x^q), and above n0
the Laplacian splits over the characters of Z/p^n into

    kappa_n = kappa_{n-1} |Res(Phi_{p^(n-n0)}, R)| / p.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

from .arith import check_cap, require_int, require_prime, valuation
from .backend import Schedule, replay_determinant
from .errors import StructureViolationError, ZeroPolynomialError
from .graph import (
    DirectedMultigraph,
    _constant_total_degree,
    cycle_weight_profile,
    degree_profile,
    is_adjacency_normal,
    require_connected,
)
from .linalg import (
    _cleared_matrix, _interpolate_integer, _kappa, cyclotomic_resultants,
    elimination_schedule,
)
from .tower import CHARPOLY_VERTEX_CAP, check_derived_size, require_tower


@dataclass(frozen=True)
class IwasawaInvariants:
    """mu, lambda and the stabilization level n0 of one tower component.

    ``mu_total`` and ``lam_total`` are the raw Weierstrass data of the
    characteristic polynomial, which sees all p^n0 components at once.
    The p-power carries through unchanged (mu_total = mu) while the
    distinguished degree spreads over the components: lam_total =
    p^n0 * (lam + 1).
    """

    p: int
    n0: int
    mu: int
    lam: int
    mu_total: int
    lam_total: int
    charpoly: tuple[int, ...]


@dataclass(frozen=True)
class TowerLevel:
    n: int
    component_count: int
    kappa_per_component: int
    ord_p: int
    predicted_ord_p: int


@dataclass(frozen=True)
class TowerReport:
    """Per-level spanning-tree data with the fitted growth constant and
    the invariants the prediction was made from."""

    levels: tuple[TowerLevel, ...]
    fitted_nu: int
    exact_from_level: Optional[int]
    invariants: IwasawaInvariants


def char_poly(g: DirectedMultigraph) -> tuple[int, ...]:
    """P(T) = (1+T)^r * det(D - A(1+T) - A^t(1+T)^(-1)), exactly: its
    coefficients, T^0 first, with trailing zeros trimmed.

    With D the total-degree diagonal (loops counted twice) and A the
    adjacency matrix (loops once), P(T) = Q(1 + T) for the cleared
    determinant Q(x) = det(Dx - Ax^2 - A^t).  Since x^2 M(1/x) = M(x)^t,
    Q(x) = x^(2r) Q(1/x) is palindromic, so Q(x) = x^r S(x + 1/x) with S
    an integer polynomial, of degree at most d = r - c where c is the
    least x-order of a Leibniz term of Q (see :func:`_char_poly`), and
    d + 1 integer determinants pin it down: Q(k) at k = -1, 2, -2, 3, ...
    With L the lcm of the |k|, S_L(z) = L^d S(z / L) has integer
    coefficients s_j L^(d-j) and takes the integer value (L/k)^d Q(k)/k^c
    at the integer node z = (k^2 + 1) L/k, so integer Newton interpolation
    recovers it and exact divisions give the s_j.  Each M(k), k != 0, has the off-diagonal
    pattern of g's non-loop edges taken both ways, so one schedule,
    planned on the edge list, is replayed on all of them.  A k whose
    replay meets a zero pivot is skipped for the next, and L is the lcm of
    the k used.  A pivot of order j < r is a leading minor, of degree
    <= 2j in k and positive at k = 1 (a proper minor of a connected
    Laplacian), so at most r(r - 1) nodes fail and r^2 + 1 candidates
    always leave d + 1.

    Q(1) = det(Laplacian) = 0 and x = 1 is not a node, so u = 1 must come
    out at least a double root: T^2 divides P(T), checked here.  As the
    rebuilt Q is palindromic, Q'(1) = r Q(1): P's T^1 coefficient is r
    times its T^0 one, so the check's only independent content is Q(1) =
    S(2) = 0.  Graphs with more than CHARPOLY_VERTEX_CAP vertices raise
    TooLargeError first; then ``graph.require_connected`` raises
    EmptyGraphError or NotConnectedError.
    """
    schedule = _charpoly_schedule(g)
    require_connected(g)
    return _char_poly(g, schedule)[0]


def _charpoly_schedule(g: DirectedMultigraph) -> Schedule:
    """``g``'s elimination schedule, once its vertex count is within
    CHARPOLY_VERTEX_CAP: TooLargeError comes before anything is planned."""
    check_cap(
        "{count} vertices exceed the characteristic-polynomial cap of {cap}",
        g.vertex_count,
        CHARPOLY_VERTEX_CAP,
    )
    return elimination_schedule(g)


def _least_x_order(m0: list[list[int]], m1: list[list[int]]) -> int:
    """c = the least sum_i ord_x M(x)[i][sigma(i)] over the permutations
    sigma, M(x) = Dx - Ax^2 - A^t, read off m0 = M(0) and m1 = M(-1); r +
    1 when every sigma meets a zero entry, so that Q = 0 and r - c = -1.

    An entry's order is 0 where M(0) = -A^t is nonzero; elsewhere, where
    M(-1) = -D - A - A^t is nonzero (no sign cancels), it is 1 on the
    diagonal (D_ii x) and 2 off it (-a_ij x^2).  The least sum is an
    assignment problem, solved on reduced orders ord + u_i - v_j >= 0 that
    are 0 on every row's column.  At the start u_i = -1 on a zero row of
    M(0) (a source), v_j = 1 on a zero column (a sink), and both are 0
    elsewhere, so sum v - sum u counts the sources and sinks.  Rows take
    free columns of reduced order 0 greedily, each row left takes a
    shortest augmenting path (Dijkstra), the potentials move by the
    distances found, and c is sum v - sum u at the end.
    """
    r = len(m1)
    everything = range(r)
    row_pot = [any(r0) - 1 for r0 in m0]
    col_pot = [1 - any(col) for col in zip(*m0)]
    col_of, row_of = [-1] * r, [-1] * r
    free = []
    for i, u, r0, r1 in zip(everything, row_pot, m0, m1):
        for j in compress(everything, r1):
            order = 0 if r0[j] else 1 if i == j else 2
            if row_of[j] < 0 and order + u == col_pot[j]:
                col_of[i], row_of[j] = j, i
                break
        else:
            free.append(i)
    for start in free:
        dist, via, heap, settled = [math.inf] * r, [-1] * r, [], {}
        i, top = start, 0
        while True:
            u, r0 = top + row_pot[i], m0[i]
            for j in compress(everything, m1[i]):
                dj = u + (0 if r0[j] else 1 if i == j else 2) - col_pot[j]
                if dj < dist[j] and j not in settled:
                    dist[j], via[j] = dj, i
                    heapq.heappush(heap, (dj, j))
            while heap and heap[0][1] in settled:
                heapq.heappop(heap)  # left behind by a cheaper entry
            if not heap:
                return r + 1
            top, j = heapq.heappop(heap)
            settled[j] = top
            if row_of[j] < 0:
                break
            i = row_of[j]
        # a row reached through its column is as far as that column
        row_pot[start] -= top
        for col, d in settled.items():
            col_pot[col] += d - top
            if row_of[col] >= 0:
                row_pot[row_of[col]] += d - top
        while True:  # flip the path back from the free column j
            i = via[j]
            col_of[i], row_of[j], j = j, i, col_of[i]
            if i == start:
                break
    return sum(col_pot) - sum(row_pot)


def _char_poly(
    g: DirectedMultigraph, schedule: Schedule
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`char_poly` of a connected ``g`` on its ``schedule``, with
    the coefficients of Q(x) = P(x - 1), x^0 first and trailing zeros
    trimmed, from which P came.

    The term of the Leibniz expansion of Q = det M(x) at a permutation
    sigma is +-prod_i M(x)[i][sigma(i)], whose x-order is the sum of its
    factors' orders.  With c the least such sum over the permutations
    (:func:`_least_x_order`), x^c divides every term and so Q.  Q(x) =
    x^r S(x + 1/x) = sum_j s_j x^(r-j) (x^2 + 1)^j has order r - deg S at
    0, so S has degree at most d = r - c, and d + 1 nodes determine it; a
    Q(k) that k^c does not divide breaks the argument and is an error.  A
    source's row of M(x) and a sink's column hold no entry of order 0, so
    c is at least the number of sources plus sinks.  The one-vertex graph
    with no edge has no permutation with nonzero entries: Q = 0, c = r + 1,
    and no node is replayed.
    """
    r = g.vertex_count
    first = _cleared_matrix(g, -1)  # the first node, read for the orders
    c = _least_x_order(_cleared_matrix(g, 0), first)
    d = r - c
    nodes = []
    # k = -1, 2, -2, 3, ...: k + 1/k is one-to-one on them, and 1 is not one
    for i in range(1, r * r + 2):
        if len(nodes) > d:
            break
        k = (-1) ** i * (i // 2 + 1)
        m = first if i == 1 else _cleared_matrix(g, k)
        det = replay_determinant(schedule, m)
        if det is not None:
            nodes.append((k, det))
    if len(nodes) <= d:
        raise StructureViolationError(f"{len(nodes)} of {r * r + 1} nodes replayed")
    big = math.lcm(*(k for k, _ in nodes))
    zs = [(k * k + 1) * (big // k) for k, _ in nodes]
    ws = []
    for k, det in nodes:
        w, rem = divmod(det, k**c)
        if rem:
            raise StructureViolationError(
                f"Q(k) at k = {k} is not divisible by k^{c}"
            )
        ws.append((big // k) ** d * w)
    s_hat = _interpolate_integer(zs, ws)
    s = []
    for j in range(d + 1):
        s_j, rem = divmod(s_hat[j], big ** (d - j))
        if rem:
            raise StructureViolationError(
                f"x^r S(x + 1/x): coefficient of z^{j} is not an integer"
            )
        s.append(s_j)
    # homogeneous Horner: Q <- Q (x^2 + 1) + s_j x^(r-j), j = d..0, with
    # Q on the degrees r - d .. r + d - 2j
    q = [0] * (2 * r + 1)
    for j in range(d, -1, -1):
        for i in range(r + d - 2 * j, r - d + 1, -1):
            q[i] += q[i - 2]
        q[r - j] += s[j]
    while q and q[-1] == 0:
        q.pop()
    p = _taylor_shift(q, 1)  # as deg P = deg Q, P has no trailing zero
    # q is palindromic, so Q'(1) = r Q(1): in effect this checks S(2) = 0
    if any(p[:2]):
        raise StructureViolationError(
            "characteristic polynomial is not divisible by T^2"
        )
    return tuple(p), tuple(q)


def _taylor_shift(coeffs: Sequence[int], a: int) -> list[int]:
    """The coefficients of P(x + a) from those of P, x^0 first, by
    repeated synthetic division of the list in place: O(degree^2)
    additions, no polynomial products."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def weierstrass(poly: Sequence[int], p: int) -> tuple[int, int]:
    """(mu_total, lam_total): the least coefficient valuation and the first
    index attaining it, read straight off the integer coefficients of
    ``poly``, T^0 first; trailing zeros change nothing.  A coefficient that
    is not an int (a bool is not one) raises ValueError, and a polynomial
    with no nonzero coefficient ZeroPolynomialError."""
    require_prime(p)
    mu_total = lam_total = None
    for i, c in enumerate(poly):
        require_int("coefficient", c)
        if c == 0:
            continue
        v = valuation(c, p)
        if mu_total is None or v < mu_total:
            mu_total = v
            lam_total = i
    if mu_total is None:
        raise ZeroPolynomialError("zero polynomial has no Weierstrass data")
    return mu_total, lam_total


def invariants(g: DirectedMultigraph, p: int) -> IwasawaInvariants:
    """Iwasawa invariants of the constant tower over ``g``.

    At level n >= n0 the derived graph is p^n0 isomorphic components
    permuted by the deck action, so its Picard module is induced from one
    component's and the characteristic series composes with
    (1+T)^(p^n0) - 1.  Composition leaves the p-power alone (mu =
    mu_total) and multiplies the distinguished degree by p^n0, so p^n0
    must divide lam_total; a violation would be a bug, not a property of
    the input.  (Checked against brute-force tower data by the
    cross-validation suite, including mu > 0 towers with n0 > 0 where the
    two exponents genuinely differ.)
    """
    require_prime(p)
    n0 = require_tower(g, p)
    return _invariants_at(_char_poly(g, _charpoly_schedule(g))[0], p, n0)


def _invariants_at(poly: Sequence[int], p: int, n0: int) -> IwasawaInvariants:
    """:func:`invariants` from the characteristic polynomial ``poly`` and
    n0, which the caller has computed once."""
    mu_total, lam_total = weierstrass(poly, p)
    q = p**n0
    if lam_total % q:
        raise StructureViolationError(
            f"distinguished degree {lam_total} not divisible by p^n0={q}"
        )
    mu = mu_total
    lam = lam_total // q - 1
    if lam < 0:
        raise StructureViolationError("negative lambda")
    return IwasawaInvariants(p, n0, mu, lam, mu_total, lam_total, poly)


def verify_growth(
    g: DirectedMultigraph, p: int, n_max: int
) -> TowerReport:
    """Climb the tower and check ord_p(kappa_n) = mu p^m + lam m + nu.

    kappa_n counts spanning trees of one tower component at level n and
    m = n - n0 indexes the tower from its connected base.  No derived graph
    is built.  The q = p^n0 components at level n0 cover g with total
    degree q, so each is a copy of g and kappa_n0 is g's Kirchhoff count.
    Gauging D - Ax - A^t x^(-1) by diag(x^theta(v)), theta a tree potential,
    leaves only powers x^(+-w) with every cycle weight w divisible by q, so
    Q(x) = P(x - 1) = x^e R(x^q), checked here.  Above n0 the component
    count stays q and the Laplacian splits over the characters of Z/p^n,
    whose primitive p^n-th-root part multiplies to |Res(Phi_{p^n}, Q)| =
    |Res(Phi_{p^(n-n0)}, R)|^q; taking the q-th root of the level step,

        kappa_n = kappa_{n-1} |Res(Phi_{p^(n-n0)}, R)| / p,

    one exact division per level.  nu is fitted at the top level and
    back-checked downward; ``exact_from_level`` is the least level from
    which the identity holds on all recorded data.  The report carries
    ``invariants(g, p)``; one plan of g serves it and kappa_n0.  An
    ``n_max`` that is not an int (a bool is not one), or one below n0 + 2,
    raises ValueError before the characteristic-polynomial cap is checked.
    """
    require_prime(p)  # before the size check, whose loop needs p >= 2
    require_int("n_max", n_max)
    check_derived_size(g.vertex_count, p, n_max)
    n0 = require_tower(g, p)
    if n_max < n0 + 2:
        raise ValueError(f"n_max must be at least n0 + 2 = {n0 + 2}")
    schedule = _charpoly_schedule(g)
    poly, cleared = _char_poly(g, schedule)
    inv = _invariants_at(poly, p, n0)
    q = p**n0
    e = next(i for i, c in enumerate(cleared) if c)
    if any(c for i, c in enumerate(cleared) if (i - e) % q):
        raise StructureViolationError(
            f"Q(x) = P(x - 1) is not x^{e} R(x^{q})"
        )
    kappa = _kappa(g, schedule)
    records = [(n0, q, kappa, valuation(kappa, p))]
    resultants = cyclotomic_resultants(cleared[e::q], p, n_max - n0)
    for n, res in enumerate(resultants, n0 + 1):
        kappa, rem = divmod(kappa * res, p)
        if res == 0 or rem:
            raise StructureViolationError(
                f"level {n}: |Res(Phi_{p}^{n - n0}, R)| gives no integer kappa"
            )
        records.append((n, q, kappa, valuation(kappa, p)))
    m_max = n_max - n0
    nu = records[-1][3] - inv.mu * p**m_max - inv.lam * m_max
    levels = []
    exact_from = None
    for n, ncomp, kappa, ord_p in records:
        m = n - n0
        predicted = inv.mu * p**m + inv.lam * m + nu
        if ord_p == predicted:
            if exact_from is None:
                exact_from = n
        else:
            exact_from = None
        levels.append(TowerLevel(n, ncomp, kappa, ord_p, predicted))
    return TowerReport(tuple(levels), nu, exact_from, inv)


@dataclass(frozen=True)
class TheoremHypotheses:
    """Checkable hypotheses of the three mu/lambda theorems."""

    mu_positive_hyp: bool
    mu_zero_hyp: bool
    balanced_hyp: bool


def check_theorem_hypotheses(g: DirectedMultigraph, p: int) -> TheoremHypotheses:
    """mu_positive_hyp: p divides every in- and out-degree (forces mu > 0).
    mu_zero_hyp: constant total degree coprime to p and a normal adjacency
    matrix (forces mu = 0).  balanced_hyp: balanced, a cycle weight coprime
    to p when p = 2, and p does not divide k * kappa where k is the edge
    count (forces mu = 0, lambda = 1).  A p that is not prime raises
    InvalidPrimeError, then ``graph.require_connected`` EmptyGraphError or
    NotConnectedError, then a graph with more than CHARPOLY_VERTEX_CAP
    vertices TooLargeError, before any matrix is built."""
    require_prime(p)
    profile = cycle_weight_profile(g)
    schedule = _charpoly_schedule(g)
    prof = degree_profile(g)
    mu_positive = all(
        d_i % p == 0 and d_o % p == 0
        for d_i, d_o in zip(prof.in_deg, prof.out_deg)
    )
    k_const = _constant_total_degree(prof)
    mu_zero = (
        k_const is not None and k_const % p != 0 and is_adjacency_normal(g)
    )
    balanced = (
        prof.in_deg == prof.out_deg
        and (p != 2 or profile.weight_gcd % 2 == 1)
        and sum(prof.in_deg) * _kappa(g, schedule) % p != 0
    )
    return TheoremHypotheses(mu_positive, mu_zero, balanced)
