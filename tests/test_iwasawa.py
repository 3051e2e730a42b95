import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from voltage_tower import (
    ConstantVoltage,
    CraterSpec,
    DirectedMultigraph,
    IntMatrix,
    IntPolynomial,
    InvalidPrimeError,
    NonIntegralInterpolationError,
    NoTowerError,
    NotConnectedError,
    StructureViolationError,
    TooLargeError,
    VolcanoSpec,
    ZeroPolynomialError,
    adjacency_matrix,
    bouquet,
    char_poly,
    check_theorem_hypotheses,
    cycle_weight_profile,
    cyclotomic_resultants,
    degree_profile,
    directed_cycle,
    doubled,
    invariants,
    kirchhoff_count,
    stabilization_level,
    tower_component,
    verify_growth,
    volcano,
    weierstrass,
)
from voltage_tower import backend, graph, iwasawa, linalg
from voltage_tower.arith import PRIME_CAP, require_prime, valuation
from voltage_tower.backend import bareiss_determinant, replay_determinant
from voltage_tower.linalg import _cleared_matrix, elimination_schedule
from voltage_tower.tower import CHARPOLY_VERTEX_CAP

from oracles import (
    charpoly_2r_plus_1,
    fit_growth_parameters,
    least_x_order,
    loop_valuation,
    poly_add,
    poly_eval,
    poly_pow,
    poly_scale,
    poly_sub,
    smith_normal_form,
)
from strategies import (
    connected_multigraphs,
    looped_multigraphs,
    paired_multigraphs,
    sourced_multigraphs,
    weights_divisible_by,
)

PRIMES = (2, 3, 5)


def test_char_poly_examples():
    assert char_poly(bouquet(1)) == IntPolynomial((0, 0, -1))
    assert char_poly(bouquet(2)) == IntPolynomial((0, 0, -2))
    assert char_poly(directed_cycle(3)) == IntPolynomial(
        (0, 0, -9, -18, -15, -6, -1)
    )


def test_char_poly_three_cycle_is_circulant_square():
    # det(aI + bC + cC^t) = a^3 + b^3 + c^3 - 3abc collapses to
    # -((1+T)^3 - 1)^2 for the directed triangle
    u = (1, 1)
    expected = poly_scale(poly_pow(poly_sub(poly_pow(u, 3), (1,)), 2), -1)
    assert char_poly(directed_cycle(3)) == IntPolynomial(expected)


def binomial_shift(poly: IntPolynomial, a: int) -> IntPolynomial:
    """P(x + a) as the sum of c_k (x + a)^k, by polynomial products."""
    out = ()
    for k, c in enumerate(poly):
        out = poly_add(out, poly_scale(poly_pow((a, 1), k), c))
    return IntPolynomial(out)


def test_taylor_shift_of_every_corpus_charpoly(corpus):
    # verify_growth builds Q(x) = P(x - 1) by the in-place shift
    for g in corpus:
        poly = char_poly(g)
        assert poly.taylor_shift(-1) == binomial_shift(poly, -1), g.name


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.integers(min_value=-(10**40), max_value=10**40), max_size=12
    ),
    a=st.integers(min_value=-6, max_value=6),
)
def test_taylor_shift_matches_the_binomial_sum(coeffs, a):
    poly = IntPolynomial(coeffs)
    assert poly.taylor_shift(a) == binomial_shift(poly, a)


def test_char_poly_requires_connected():
    with pytest.raises(NotConnectedError):
        char_poly(DirectedMultigraph(2, ()))


@settings(max_examples=60, deadline=None)
@given(g=connected_multigraphs())
def test_char_poly_palindromy_and_double_root(g):
    # Q(u) = P(u - 1) = u^r det(D - A u - A^t u^-1) satisfies
    # Q(u) = u^(2r) Q(1/u), and T^2 | P(T) (double root at u = 1)
    poly = char_poly(g)
    q = binomial_shift(poly, -1)
    r = g.vertex_count
    assert q.degree <= 2 * r
    coeffs = [q.coefficient(k) for k in range(2 * r + 1)]
    assert coeffs == coeffs[::-1]
    assert poly.coefficient(0) == 0
    assert poly.coefficient(1) == 0


@settings(max_examples=60, deadline=None)
@given(g=connected_multigraphs(), data=st.data())
def test_char_poly_matches_the_cleared_matrix_off_the_nodes(g, data):
    # the cleared matrix D(1+x) - A(1+x)^2 - A^t, built entry by entry;
    # the r - c + 1 evaluation points 1 + T = -1, 2, -2, ... lie in
    # [-(r + 2), r + 2], so 1 + x does not hit one
    r = g.vertex_count
    x = data.draw(
        st.integers(min_value=r + 4, max_value=10**6)
        | st.integers(min_value=-(10**6), max_value=-r - 4)
    )
    prof = degree_profile(g)
    adj = adjacency_matrix(g)
    cleared = [
        [
            (prof.in_deg[i] + prof.out_deg[i] if i == j else 0) * (1 + x)
            - adj[i][j] * (1 + x) ** 2
            - adj[j][i]
            for j in range(r)
        ]
        for i in range(r)
    ]
    assert poly_eval(char_poly(g), x) == bareiss_determinant(cleared)


@settings(max_examples=60, deadline=None)
@given(g=connected_multigraphs(max_vertices=12), data=st.data())
def test_char_poly_is_invariant_under_relabeling(g, data):
    # char_poly eliminates in its own vertex order, so the input labels
    # must not matter
    r = g.vertex_count
    perm = data.draw(st.permutations(range(r)))
    relabeled = DirectedMultigraph(
        r, tuple((perm[s], perm[t]) for s, t in g.edges)
    )
    assert char_poly(relabeled) == char_poly(g)
    schedule = elimination_schedule(g)
    order = [v for v, _, _ in schedule]
    assert sorted(order) == list(range(r))
    assert elimination_schedule(g) == schedule


def test_char_poly_rejects_a_linear_term(monkeypatch):
    # directed_cycle(3) evaluates Dk - Ak^2 - A^t with 2k on the diagonal;
    # answering k^3 there gives Q(x) = x^3 S(x + 1/x) with S = 1, a
    # palindromic Q whose P(T) = (1 + T)^3 has T^0 and T^1 coefficients
    # 1 and 3
    monkeypatch.setattr(
        iwasawa, "replay_determinant", lambda schedule, m: (m[0][0] // 2) ** 3
    )
    with pytest.raises(StructureViolationError, match="T\\^2"):
        char_poly(directed_cycle(3))


def test_char_poly_rejects_a_half_that_is_not_integral(monkeypatch):
    # S_L = 1 gives s_0 = 1 / L^r; skipping the exact division would
    # return P = 0, which passes the T^2 check
    monkeypatch.setattr(
        iwasawa, "_interpolate_integer", lambda xs, ys: IntPolynomial((1,))
    )
    with pytest.raises(StructureViolationError, match="not an integer"):
        char_poly(directed_cycle(3))


def spy_on_the_nodes(monkeypatch):
    """(ks, dets), filled as char_poly runs: each node k it builds M(k) for
    and each replay's result, None for a skipped node.  M(0), read for the
    x-orders only, is no node."""
    ks, dets = [], []

    def spied_matrix(g, k, real=linalg._cleared_matrix):
        if k:
            ks.append(k)
        return real(g, k)

    def spied_replay(schedule, m):
        dets.append(replay_determinant(schedule, m))
        return dets[-1]

    monkeypatch.setattr(iwasawa, "_cleared_matrix", spied_matrix)
    monkeypatch.setattr(iwasawa, "replay_determinant", spied_replay)
    return ks, dets


def least_order(g):
    """c, the least x-order of a Leibniz term of Q, from the oracle; r + 1
    when every term vanishes, as the library counts it."""
    c = least_x_order(g)
    return g.vertex_count + 1 if c is None else c


# graphs besides the corpus whose nodes the corruption tests also take
MORE_NODES = (directed_cycle(7), doubled(directed_cycle(6)))


@pytest.mark.parametrize(
    "offset, error, match",
    [
        # off by k^c: no integer S_L fits the r - c + 1 values, unless the
        # spike (L/k)^d it puts on S_L is a multiple of prod (z_i - z_j)
        ("one", NonIntegralInterpolationError, "divided difference"),
        # off by k^c prod (z_i - z_j): S_L stays integral, but S or T^2 | P
        # fails
        ("nodes", StructureViolationError, None),
        # off by k^c L^d prod (z_i - z_j): S stays integral, but S(2) != 0
        ("nodes_L", StructureViolationError, "T\\^2"),
    ],
)
def test_char_poly_rejects_one_corrupted_evaluation(
    monkeypatch, corpus, offset, error, match
):
    # one determinant corrupted, at each of the d + 1 = r - c + 1 nodes k
    # used in turn, c the least x-order of a Leibniz term of Q; the
    # interpolation nodes are z = (k^2 + 1) L/k with L = lcm |k|, and each
    # offset is a multiple of k^c, so Q(k) / k^c takes the offset over k^c
    checked = 0
    for g in (*corpus, *MORE_NODES):
        c = least_order(g)
        d = g.vertex_count - c
        ks, dets = spy_on_the_nodes(monkeypatch)
        char_poly(g)
        monkeypatch.undo()
        # a skipped node gives None
        used = [k for k, det in zip(ks, dets) if det is not None]
        assert len(used) == max(d + 1, 0), g.name
        big = math.lcm(*used)
        zs = [(k * k + 1) * (big // k) for k in used]
        positions = [i for i, det in enumerate(dets) if det is not None]
        for bad in range(d + 1):
            delta = math.prod(zs[bad] - z for z in zs if z != zs[bad])
            if offset == "one" and (big // used[bad]) ** d % delta == 0:
                continue  # an integer S_L fits the corrupted values
            delta = {"one": 1, "nodes": delta, "nodes_L": delta * big**d}[offset]
            delta *= used[bad] ** c
            calls = itertools.count()

            def corrupted(schedule, m, calls=calls, at=positions[bad], delta=delta):
                det = replay_determinant(schedule, m)
                return det + delta if next(calls) == at else det

            monkeypatch.setattr(iwasawa, "replay_determinant", corrupted)
            with pytest.raises(error, match=match):
                char_poly(g)
            # d + 1 nodes plus the skipped ones
            assert next(calls) == len(dets), g.name
            checked += 1
    assert checked >= 130


def test_char_poly_rejects_an_evaluation_that_k_to_the_c_does_not_divide(
    monkeypatch, corpus
):
    # x^c divides Q, so Q(k) + 1 is off the lattice k^c Z at every node
    # with |k| >= 2 once c >= 1
    checked = 0
    for g in corpus:
        if least_order(g) == 0:
            continue
        ks, dets = spy_on_the_nodes(monkeypatch)
        char_poly(g)
        monkeypatch.undo()
        for at, (k, det) in enumerate(zip(ks, dets)):
            if det is None or abs(k) < 2:
                continue
            calls = itertools.count()

            def corrupted(schedule, m, calls=calls, at=at):
                det = replay_determinant(schedule, m)
                return det + 1 if next(calls) == at else det

            monkeypatch.setattr(iwasawa, "replay_determinant", corrupted)
            with pytest.raises(StructureViolationError, match="not divisible"):
                char_poly(g)
            checked += 1
    assert checked >= 20


@settings(max_examples=150, deadline=None)
@given(g=paired_multigraphs())
# the path 0 -> 1 -> 2: c = 3, each permutation with nonzero entries taking
# its diagonal's x, 2x and x, or -x^2 and -1 in place of two of them
@example(g=DirectedMultigraph(3, ((0, 1), (1, 2))))
def test_least_x_order_matches_the_oracle(g):
    m0, m1 = _cleared_matrix(g, 0), _cleared_matrix(g, -1)
    assert iwasawa._least_x_order(m0, m1) == least_order(g)


def test_least_x_order_is_at_most_the_order_of_q(corpus):
    # x^c divides Q, so c <= ord_0 Q, read off the 2r + 1 node oracle
    for g in corpus:
        q = charpoly_2r_plus_1(g).taylor_shift(-1)
        order = next((i for i, x in enumerate(q) if x), math.inf)
        m0, m1 = _cleared_matrix(g, 0), _cleared_matrix(g, -1)
        assert iwasawa._least_x_order(m0, m1) <= order, g.name


def test_char_poly_replays_r_minus_c_plus_1_nodes_and_the_skipped(
    monkeypatch, corpus
):
    # c from the oracle: a weaker bound replays more nodes than this pins
    # (the count of sources and sinks in place of c replays 142)
    expected, replayed = [], []
    for g in corpus:
        _, dets = spy_on_the_nodes(monkeypatch)
        char_poly(g)
        monkeypatch.undo()
        expected.append(g.vertex_count - least_order(g) + 1 + dets.count(None))
        replayed.append(len(dets))
    assert replayed == expected
    assert sum(replayed) == 130


def test_char_poly_skips_a_node_with_a_zero_pivot(monkeypatch):
    # vertex 0, with total degree 5, two loops and one neighbour, is
    # eliminated first; its pivot 5k - 2(k^2 + 1) vanishes at k = 2 only,
    # so k = 2 is skipped and P(T) comes from k = -1, -2, 3, -3
    g = DirectedMultigraph(3, ((0, 0), (0, 0), (0, 1), (1, 2), (2, 1)))
    expected = charpoly_2r_plus_1(g)
    ks, dets = spy_on_the_nodes(monkeypatch)

    def no_bareiss(rows):
        raise AssertionError("a graph determinant went to dense Bareiss")

    monkeypatch.setattr(backend, "bareiss_determinant", no_bareiss)
    assert char_poly(g) == expected
    assert ks == [-1, 2, -2, 3, -3]
    assert [det is None for det in dets] == [False, True, False, False, False]


def test_char_poly_of_the_transitive_triangle_takes_two_nodes(monkeypatch):
    # 0 -> 1, 0 -> 2, 1 -> 2: every Leibniz term of Q has x-order at least
    # c = 2, the term of the 3-cycle (0 2 1) taking -x^2, -1 and -1, and
    # Q(x) = -x^2 (x - 1)^2 = x^3 S(x + 1/x) with S(z) = 2 - z of degree
    # d = r - c = 1
    g = DirectedMultigraph(3, ((0, 1), (0, 2), (1, 2)))
    expected = charpoly_2r_plus_1(g)
    assert expected == IntPolynomial((0, 0, -1, -2, -1))
    ks, _ = spy_on_the_nodes(monkeypatch)
    assert char_poly(g) == expected
    assert ks == [-1, 2]


def test_char_poly_matches_the_2r_plus_1_node_oracle(corpus):
    for g in corpus:
        assert char_poly(g) == charpoly_2r_plus_1(g), g.name


@settings(max_examples=80, deadline=None)
@given(g=looped_multigraphs())
def test_char_poly_matches_the_oracle_with_loops_and_parallel_edges(g):
    assert char_poly(g) == charpoly_2r_plus_1(g)


@settings(max_examples=100, deadline=None)
@given(g=sourced_multigraphs())
# two sources and a sink: c = r = 3, d = 0, and Q = 0 from one node
@example(g=DirectedMultigraph(3, ((0, 1), (2, 1), (0, 1))))
def test_char_poly_matches_the_oracle_with_sources_and_sinks(g):
    assert char_poly(g) == charpoly_2r_plus_1(g)


def test_char_poly_refuses_a_graph_over_the_cap_before_any_matrix(
    monkeypatch,
):
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(iwasawa, "_cleared_matrix", no_matrix)
    monkeypatch.setattr(iwasawa, "elimination_schedule", no_matrix)
    with pytest.raises(TooLargeError):
        char_poly(directed_cycle(CHARPOLY_VERTEX_CAP + 1))
    # the cap comes before connectivity
    with pytest.raises(TooLargeError):
        char_poly(DirectedMultigraph(CHARPOLY_VERTEX_CAP + 1, ()))


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 313)),
    k=st.integers(min_value=0, max_value=300),
    u=st.integers(min_value=1, max_value=10**30),
    sign=st.sampled_from((1, -1)),
)
def test_valuation_matches_the_division_loop(p, k, u, sign):
    n = sign * p**k * u
    assert valuation(n, p) == loop_valuation(n, p)


def test_weierstrass_examples():
    assert weierstrass(IntPolynomial((0, 0, -2)), 2) == (1, 2)
    assert weierstrass(IntPolynomial((0, 0, -2)), 3) == (0, 2)
    assert weierstrass(IntPolynomial((0, 0, -9, -18, -15, -6, -1)), 3) == (0, 6)
    with pytest.raises(ZeroPolynomialError):
        weierstrass(IntPolynomial(()), 2)


def test_composite_p_is_rejected():
    with pytest.raises(InvalidPrimeError):
        weierstrass(IntPolynomial((0, 0, -2)), 4)
    for p in (0, 1, 4, 9):
        with pytest.raises(InvalidPrimeError):
            invariants(bouquet(2), p)
        # p = 1 reaching the size check would loop 10^12 times
        with pytest.raises(InvalidPrimeError):
            verify_growth(bouquet(2), p, 10**12)


def test_require_prime_takes_ints_up_to_its_cap():
    require_prime(2)
    require_prime(4_294_967_291)  # the largest prime below PRIME_CAP = 2^32
    for p in (2.5, 3.0, True, "3", None):
        with pytest.raises(InvalidPrimeError):
            require_prime(p)
    # 2^61 - 1 is prime: trial division would take minutes
    for p in (PRIME_CAP + 1, 2**61 - 1):
        with pytest.raises(TooLargeError):
            require_prime(p)
    for call in (
        lambda p: weierstrass(IntPolynomial((0, 0, -2)), p),
        lambda p: invariants(directed_cycle(3), p),
        lambda p: verify_growth(directed_cycle(3), p, 3),
        ConstantVoltage,
        lambda p: cyclotomic_resultants(IntPolynomial((-2, 1)), p, 2),
    ):
        for p in (2.5, 3.0, True):
            with pytest.raises(InvalidPrimeError):
                call(p)
        with pytest.raises(TooLargeError):
            call(2**61 - 1)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=8),
    p=st.sampled_from(PRIMES),
)
def test_weierstrass_shift_properties(coeffs, p):
    poly = IntPolynomial(coeffs)
    if poly.is_zero:
        return
    mu_t, lam_t = weierstrass(poly, p)
    assert weierstrass(IntPolynomial(poly_scale(poly, p)), p) == (mu_t + 1, lam_t)
    shifted = IntPolynomial((0,) + poly.coefficients)
    assert weierstrass(shifted, p) == (mu_t, lam_t + 1)


def test_invariants_examples():
    inv = invariants(volcano(VolcanoSpec(2, 2, CraterSpec.cycle(4))), 3)
    assert (inv.mu, inv.lam, inv.n0) == (0, 1, 0)
    inv = invariants(bouquet(2), 2)
    assert (inv.mu, inv.lam, inv.n0) == (1, 1, 0)
    inv = invariants(directed_cycle(3), 3)
    assert (inv.mu, inv.lam, inv.n0) == (0, 1, 1)
    assert (inv.mu_total, inv.lam_total) == (0, 6)


def test_invariants_totals_relation(corpus):
    for g in corpus:
        for p in PRIMES:
            profile = cycle_weight_profile(g)
            if stabilization_level(profile, p) is None:
                continue
            inv = invariants(g, p)
            q = p**inv.n0
            assert inv.mu_total == inv.mu
            assert inv.lam_total == q * (inv.lam + 1)
            assert inv.charpoly.coefficient(0) == 0


def test_invariants_with_positive_mu_and_n0():
    # towers whose charpoly p-power and component count interact: the
    # p-power is a per-tower datum and must not be divided by p^n0
    g = DirectedMultigraph(2, ((0, 1), (0, 1), (1, 0)), name="triple-link")
    inv = invariants(g, 2)
    assert (inv.n0, inv.mu, inv.lam) == (1, 1, 1)
    report = verify_growth(g, 2, 4)
    assert [lvl.ord_p for lvl in report.levels] == [0, 2, 5, 10]
    assert report.fitted_nu == -1
    assert report.exact_from_level == 1

    quad = DirectedMultigraph(
        2, ((0, 1), (0, 1), (1, 0), (1, 0)), name="quad-link"
    )
    inv = invariants(quad, 2)
    assert (inv.n0, inv.mu, inv.lam) == (1, 2, 1)
    report = verify_growth(quad, 2, 4)
    assert [lvl.ord_p for lvl in report.levels] == [2, 5, 10, 19]
    assert report.fitted_nu == 0
    assert report.exact_from_level == 1

    quad_cycle = DirectedMultigraph(
        4,
        tuple((i, (i + 1) % 4) for i in range(4) for _ in range(2)),
        name="doubled-up-4-cycle",
    )
    inv = invariants(quad_cycle, 2)
    assert (inv.n0, inv.mu, inv.lam) == (2, 4, 1)
    report = verify_growth(quad_cycle, 2, 5)
    assert [lvl.ord_p for lvl in report.levels] == [5, 10, 19, 36]
    assert report.fitted_nu == 1
    assert report.exact_from_level == 2


def test_invariants_no_tower():
    with pytest.raises(NoTowerError):
        invariants(DirectedMultigraph(2, ((0, 1),)), 2)
    with pytest.raises(NoTowerError):
        invariants(DirectedMultigraph(2, ((0, 1), (0, 1))), 3)
    # connectivity and the tower come before the characteristic-polynomial
    # cap
    big = CHARPOLY_VERTEX_CAP + 1
    with pytest.raises(NotConnectedError):
        invariants(DirectedMultigraph(big, ()), 2)
    path = DirectedMultigraph(big, tuple((v, v + 1) for v in range(big - 1)))
    with pytest.raises(NoTowerError):
        invariants(path, 2)
    with pytest.raises(TooLargeError):
        invariants(directed_cycle(big), 2)


def test_invariants_relabeling_invariance(corpus):
    import random

    rng = random.Random(3)
    for g in corpus[:12]:
        if cycle_weight_profile(g).is_acyclic:
            continue
        if stabilization_level(cycle_weight_profile(g), 3) is None:
            continue
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        relabeled = DirectedMultigraph(
            g.vertex_count, tuple((perm[s], perm[t]) for s, t in g.edges)
        )
        a = invariants(g, 3)
        b = invariants(relabeled, 3)
        assert (a.n0, a.mu, a.lam) == (b.n0, b.mu, b.lam)


def test_verify_growth_loop_bouquet():
    report = verify_growth(bouquet(1), 2, 4)
    assert [lvl.kappa_per_component for lvl in report.levels] == [
        1,
        2,
        4,
        8,
        16,
    ]
    assert [lvl.ord_p for lvl in report.levels] == [0, 1, 2, 3, 4]
    assert report.fitted_nu == 0
    assert report.exact_from_level == 0


def test_verify_growth_two_loop_bouquet():
    report = verify_growth(bouquet(2), 2, 3)
    assert [lvl.kappa_per_component for lvl in report.levels] == [
        1,
        4,
        32,
        1024,
    ]
    assert [lvl.ord_p for lvl in report.levels] == [0, 2, 5, 10]
    inv = invariants(bouquet(2), 2)
    assert (inv.mu, inv.lam, report.fitted_nu) == (1, 1, -1)
    assert report.exact_from_level == 0
    # same graph away from 2: kappa = 2^(3^n - 1) * 3^n has ord_3 = n
    report3 = verify_growth(bouquet(2), 3, 2)
    assert [lvl.ord_p for lvl in report3.levels] == [0, 1, 2]
    inv3 = invariants(bouquet(2), 3)
    assert (inv3.mu, inv3.lam, report3.fitted_nu) == (0, 1, 0)


def test_verify_growth_volcano():
    v = volcano(VolcanoSpec(2, 2, CraterSpec.cycle(4)))
    report = verify_growth(v, 3, 3)
    assert [lvl.kappa_per_component for lvl in report.levels] == [
        4,
        12,
        36,
        108,
    ]
    assert report.fitted_nu == 0
    assert report.exact_from_level == 0
    assert report.invariants == invariants(v, 3)


def test_verify_growth_three_cycle():
    report = verify_growth(directed_cycle(3), 3, 3)
    assert [lvl.n for lvl in report.levels] == [1, 2, 3]
    assert [lvl.component_count for lvl in report.levels] == [3, 3, 3]
    assert [lvl.kappa_per_component for lvl in report.levels] == [3, 9, 27]
    assert report.exact_from_level == 1


def test_verify_growth_validates_n_max():
    with pytest.raises(ValueError):
        verify_growth(directed_cycle(3), 3, 2)  # n0 = 1 needs n_max >= 3
    for n_max in (4.0, True):
        with pytest.raises(ValueError):
            verify_growth(directed_cycle(3), 2, n_max)
    # connectivity and the tower come before n_max, and n_max before the
    # characteristic-polynomial cap
    big = CHARPOLY_VERTEX_CAP + 1
    with pytest.raises(NotConnectedError):
        verify_growth(DirectedMultigraph(big, ()), 2, 1)
    path = DirectedMultigraph(big, tuple((v, v + 1) for v in range(big - 1)))
    with pytest.raises(NoTowerError):
        verify_growth(path, 2, 1)
    with pytest.raises(ValueError, match=r"n0 \+ 2 = 2"):
        verify_growth(directed_cycle(big), 2, 1)
    with pytest.raises(TooLargeError):
        verify_growth(directed_cycle(big), 2, 2)


def test_verify_growth_caps_the_top_level():
    # 3 * 2^(10^6) derived vertices: refused before any work
    with pytest.raises(TooLargeError):
        verify_growth(directed_cycle(3), 2, 10**6)
    with pytest.raises(TooLargeError):
        verify_growth(directed_cycle(3), 1000003, 2)


@pytest.mark.parametrize(
    "p, resultant",
    [
        (2, 0),  # a zero resultant: Phi_{p^n} divides Q
        (2, 1),  # kappa_0 = 3, n0 = 0: 3 * 1 / 2 leaves a remainder
        (3, 2),  # kappa_1 = 3, n0 = 1: kappa_2 = 3 * 2 / 3, kappa_3 = 2 * 2 / 3
    ],
)
def test_verify_growth_rejects_a_resultant_with_no_integer_kappa(
    monkeypatch, p, resultant
):
    monkeypatch.setattr(
        iwasawa,
        "cyclotomic_resultants",
        lambda poly, p, levels: [resultant] * levels,
    )
    with pytest.raises(StructureViolationError):
        verify_growth(directed_cycle(3), p, 3)


def test_verify_growth_rejects_a_charpoly_not_decimated_by_p_to_the_n0(
    monkeypatch,
):
    # the 3-cycle at p = 3 has n0 = 1 and Q(x) = -(x^3 - 1)^2; adding 9T^2
    # keeps (mu, lambda) = (0, 1) but puts -18x + 9x^2 into Q
    wrong = IntPolynomial(poly_add(char_poly(directed_cycle(3)), (0, 0, 9)))
    monkeypatch.setattr(
        iwasawa,
        "_char_poly",
        lambda g, schedule: (wrong, list(wrong.taylor_shift(-1))),
    )
    assert invariants(directed_cycle(3), 3).lam == 1
    with pytest.raises(StructureViolationError, match="R\\(x\\^3\\)"):
        verify_growth(directed_cycle(3), 3, 3)


def _smith_form_product(g: DirectedMultigraph) -> int:
    reduced = [row[1:] for row in _cleared_matrix(g, 1)[1:]]
    matrix = IntMatrix.from_rows(reduced) if reduced else IntMatrix(0, 0, ())
    return math.prod(smith_normal_form(matrix))


@pytest.mark.parametrize(
    "graphs, min_n0",
    [(lambda p: connected_multigraphs(), 0), (weights_divisible_by, 1)],
    ids=["any-weights", "weights-divisible-by-p"],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_resultant_kappa_matches_the_laplacian_and_smith_form(
    graphs, min_n0, data
):
    # kappa above n0 comes from cyclotomic resultants of P(T); the tower
    # component's Laplacian (Kirchhoff, then Smith normal form) is the oracle
    p = data.draw(st.sampled_from((2, 3)))
    g = data.draw(graphs(p))
    n0 = stabilization_level(cycle_weight_profile(g), p)
    assume(n0 is not None)
    assert n0 >= min_n0
    n_max = data.draw(st.integers(min_value=n0 + 2, max_value=max(n0 + 2, 3)))
    report = verify_growth(g, p, n_max)
    assert [lvl.n for lvl in report.levels] == list(range(n0, n_max + 1))
    for lvl in report.levels:
        comp = tower_component(g, ConstantVoltage(p), lvl.n)
        assert lvl.component_count == p**n0
        assert lvl.kappa_per_component == kirchhoff_count(comp)
        assert lvl.kappa_per_component == _smith_form_product(comp)


def test_fit_growth_parameters():
    # ord = 2^m + m - 1 must fit back (1, 1, -1)
    points = [(m, 2**m + m - 1) for m in (1, 2, 3)]
    assert fit_growth_parameters(points, 2) == (1, 1, -1)
    assert fit_growth_parameters([(0, 0), (1, 1), (2, 2)], 5) == (0, 1, 0)
    with pytest.raises(ValueError):
        fit_growth_parameters([(0, 0)], 2)


def test_fit_growth_parameters_without_an_integral_solution():
    # at p = 3 through m = 0, 1, 2: det = -4 and mu = 1/4
    assert fit_growth_parameters([(0, 0), (1, 1), (2, 3)], 3) is None
    # a repeated m makes the system singular
    assert fit_growth_parameters([(1, 0), (1, 0), (2, 1)], 2) is None


def test_balanced_even_weight_towers_at_two():
    # balanced graphs whose cycle weights are all even: the 2-adic tower
    # still follows the growth law; values pinned from brute-force data
    g4 = doubled(directed_cycle(4))
    inv = invariants(g4, 2)
    assert (inv.n0, inv.mu, inv.lam) == (1, 6, 1)
    report = verify_growth(g4, 2, 4)
    assert [lvl.ord_p for lvl in report.levels] == [5, 12, 25, 50]
    assert report.fitted_nu == -1
    assert report.exact_from_level == 1

    g6 = doubled(directed_cycle(6))
    inv = invariants(g6, 2)
    assert (inv.n0, inv.mu, inv.lam) == (1, 2, 5)
    report = verify_growth(g6, 2, 5)
    points = [(lvl.n - inv.n0, lvl.ord_p) for lvl in report.levels]
    assert fit_growth_parameters(points, 2) == (2, 5, 8)
    assert report.exact_from_level == 2


def test_check_theorem_hypotheses_examples():
    hyp = check_theorem_hypotheses(bouquet(2), 2)
    assert hyp.mu_positive_hyp
    hyp = check_theorem_hypotheses(directed_cycle(3), 5)
    assert hyp.balanced_hyp
    hyp = check_theorem_hypotheses(DirectedMultigraph(2, ((0, 1), (1, 0))), 2)
    assert not hyp.mu_zero_hyp  # k = 2 is divisible by p
    assert not hyp.balanced_hyp  # its one cycle weight, 2, is even
    # at p = 2 an odd cycle weight, 3, and k * kappa = 9
    assert check_theorem_hypotheses(directed_cycle(3), 2).balanced_hyp


def test_check_theorem_hypotheses_refuses_a_graph_over_the_cap_before_any_matrix(
    monkeypatch,
):
    # the normality test multiplies dense r x r matrices, and kappa is
    # replayed on the charpoly's planner: both wait for its cap
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(graph, "adjacency_matrix", no_matrix)
    monkeypatch.setattr(iwasawa, "elimination_schedule", no_matrix)
    monkeypatch.setattr(linalg, "_cleared_matrix", no_matrix)
    big = CHARPOLY_VERTEX_CAP + 1
    with pytest.raises(TooLargeError):
        check_theorem_hypotheses(directed_cycle(big), 3)
    # connectivity comes first
    with pytest.raises(NotConnectedError):
        check_theorem_hypotheses(DirectedMultigraph(big, ()), 3)


@pytest.mark.parametrize(
    "call, profile_count",
    [
        (lambda g: verify_growth(g, 3, 3), 0),
        (lambda g: invariants(g, 3), 0),
        (lambda g: check_theorem_hypotheses(g, 3), 1),
    ],
    ids=["verify_growth", "invariants", "check_theorem_hypotheses"],
)
def test_each_entry_point_plans_once_and_runs_one_union_find(
    call, profile_count, monkeypatch
):
    # the cycle weights give n0 and connectivity, one schedule serves the
    # characteristic polynomial and kappa, and one degree profile serves
    # the degree tests; the charpoly reads its x-orders off M(0) and M(-1)
    plans, finds, profiles = [], [], []
    plan, find = linalg.elimination_schedule, graph._union_find
    profile = graph.degree_profile

    def counted_plan(g):
        plans.append(g)
        return plan(g)

    def counted_find(*args):
        finds.append(args)
        return find(*args)

    monkeypatch.setattr(linalg, "elimination_schedule", counted_plan)
    monkeypatch.setattr(iwasawa, "elimination_schedule", counted_plan)
    monkeypatch.setattr(graph, "_union_find", counted_find)
    monkeypatch.setattr(linalg, "_union_find", counted_find)

    def counted_profile(g):
        profiles.append(g)
        return profile(g)

    monkeypatch.setattr(graph, "degree_profile", counted_profile)
    monkeypatch.setattr(iwasawa, "degree_profile", counted_profile)
    # the 3-cycle at p = 3: n0 = 1, balanced, and kappa = 3 is reached
    call(directed_cycle(3))
    assert (len(plans), len(finds), len(profiles)) == (1, 1, profile_count)


@pytest.mark.parametrize("p", [0, 1, 4, -3, True, 2.0])
def test_check_theorem_hypotheses_refuses_a_p_that_is_not_prime(p):
    # p = 0 once divided by zero, and the other five returned hypotheses
    with pytest.raises(InvalidPrimeError):
        check_theorem_hypotheses(bouquet(2), p)


def test_balanced_graphs_have_t_squared_divisor(corpus):
    # T^2 divides the cleared polynomial of every balanced graph with a
    # cycle, so lambda_total >= 2 p^n0 whenever p > 2
    for g in corpus:
        prof = cycle_weight_profile(g)
        if prof.is_acyclic:
            continue
        degrees = degree_profile(g)
        if degrees.in_deg != degrees.out_deg:
            continue
        poly = char_poly(g)
        assert poly.coefficient(0) == 0 and poly.coefficient(1) == 0
        for p in (3, 5):
            n0 = stabilization_level(prof, p)
            if n0 is None:
                continue
            inv = invariants(g, p)
            assert inv.lam_total >= 2 * p**inv.n0
