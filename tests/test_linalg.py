import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voltage_tower import (
    DirectedMultigraph,
    EmptyGraphError,
    IntMatrix,
    IntPolynomial,
    InvalidPrimeError,
    NonIntegralInterpolationError,
    NotConnectedError,
    NotSquareError,
    StructureViolationError,
    TooLargeError,
    ZeroPolynomialError,
    brute_force_spanning_trees,
    char_poly,
    cycle_weight_profile,
    cyclotomic_resultants,
    determinant,
    directed_cycle,
    doubled,
    kirchhoff_count,
    stabilization_level,
)
from voltage_tower import linalg
from voltage_tower.backend import bareiss_determinant
from voltage_tower.linalg import (
    _cleared_matrix,
    _interpolate_integer,
    _root_power,
    elimination_schedule,
)

from oracles import (
    _default_points,
    cofactor_determinant,
    companion_resultants,
    cyclotomic_prime_power,
    dense_bareiss,
    matrix_pattern_schedule,
    poly_add,
    poly_eval,
    poly_matrix_determinant,
    poly_mul,
    poly_pow,
    poly_scale,
    smith_normal_form,
    sylvester_matrix,
)
from strategies import connected_multigraphs, looped_multigraphs


def random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_determinant_examples():
    assert determinant(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert determinant(IntMatrix.from_rows([[2, -1], [-1, 2]])) == 3
    assert determinant(IntMatrix(0, 0, ())) == 1
    with pytest.raises(NotSquareError):
        determinant(IntMatrix.from_rows([[1, 2]]))


# 0.0 and False would be trimmed as trailing zeros if they were let in
@pytest.mark.parametrize("bad", [2.7, "3", True, None, 0.0, False])
def test_int_matrix_and_polynomial_take_ints_only(bad):
    with pytest.raises(ValueError, match="must be an int"):
        IntMatrix(2, 2, (bad, 1, 1, 1))
    with pytest.raises(ValueError, match="must be an int"):
        IntMatrix.from_rows([[1, 2], [3, bad]])
    with pytest.raises(ValueError, match="must be an int"):
        IntPolynomial((1, bad))


def test_determinant_against_cofactor_expansion():
    rng = random.Random(99)
    for n in range(0, 8):
        for _ in range(6):
            rows = random_matrix(rng, n)
            assert determinant(IntMatrix.from_rows(rows)) == (
                cofactor_determinant(rows)
            )


def test_determinant_handles_zero_pivots():
    rows = [[0, 1, 2], [3, 0, 4], [5, 6, 0]]
    assert determinant(IntMatrix.from_rows(rows)) == cofactor_determinant(rows)
    singular = [[0, 0], [1, 1]]
    assert determinant(IntMatrix.from_rows(singular)) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_determinant_matches_oracle(rows):
    assert determinant(IntMatrix.from_rows(rows)) == cofactor_determinant(rows)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_determinant_transpose_and_row_swap(rows):
    m = IntMatrix.from_rows(rows)
    mt = IntMatrix.from_rows([list(col) for col in zip(*rows)])
    assert determinant(m) == determinant(mt)
    swapped = [rows[1], rows[0]] + rows[2:]
    assert determinant(IntMatrix.from_rows(swapped)) == -determinant(m)


def test_kirchhoff_examples():
    assert kirchhoff_count(DirectedMultigraph(3, ((0, 1), (1, 2), (0, 2)))) == 3
    for m in range(2, 7):
        assert kirchhoff_count(directed_cycle(m)) == m
    assert kirchhoff_count(DirectedMultigraph(1, ())) == 1
    with pytest.raises(NotConnectedError):
        kirchhoff_count(DirectedMultigraph(2, ()))


def test_kirchhoff_refuses_a_graph_with_no_vertices_before_its_indices():
    # as char_poly and cycle_weight_profile do: the graph is checked before
    # the indices, which select nothing
    with pytest.raises(EmptyGraphError):
        kirchhoff_count(DirectedMultigraph(0, ()))
    with pytest.raises(NotConnectedError):
        kirchhoff_count(DirectedMultigraph(2, ()), 5, 5)


def test_kirchhoff_rejects_a_non_positive_count(monkeypatch):
    # the minor is positive definite: a count of 0, or a zero pivot (None),
    # is a fault
    for det in (0, None):
        monkeypatch.setattr(
            linalg, "replay_determinant", lambda schedule, rows, det=det: det
        )
        with pytest.raises(StructureViolationError):
            kirchhoff_count(directed_cycle(3))


def test_kirchhoff_checks_its_indices():
    # (5, 5) would drop no row or column, (3, 0) only a column and (2, 7)
    # only a row; a bool is not an index
    for row, col in ((5, 5), (3, 0), (True, False)):
        with pytest.raises(ValueError):
            kirchhoff_count(directed_cycle(3), row, col)
    with pytest.raises(ValueError):
        kirchhoff_count(doubled(directed_cycle(4)), 2, 7)


def double_crater_graph(length: int) -> DirectedMultigraph:
    if length == 2:
        edges = ((0, 1),) * 4
    else:
        edges = tuple(
            (i, (i + 1) % length) for i in range(length) for _ in range(2)
        )
    return DirectedMultigraph(length, edges, name=f"double-crater({length})")


def test_kirchhoff_double_crater():
    assert kirchhoff_count(double_crater_graph(4)) == 32
    assert brute_force_spanning_trees(double_crater_graph(3)) == 12


def test_kirchhoff_minor_choice_is_free(corpus):
    for g in corpus:
        n = g.vertex_count
        base = kirchhoff_count(g)
        for row in range(n):
            assert kirchhoff_count(g, row=row, col=row) == base, g.name
        if n >= 2:
            with pytest.raises(ValueError):
                kirchhoff_count(g, row=0, col=1)
            # the (0, 0) and (0, 1) cofactors, by the oracle: the last-but-one
            # pivot is kappa, and so is +-det of each minor
            lap = _cleared_matrix(g, 1)
            assert dense_bareiss([r[1:] for r in lap[1:]]) == base, g.name
            minor = [r[:1] + r[2:] for r in lap[1:]]
            assert dense_bareiss(minor) == -base, g.name


@settings(max_examples=100, deadline=None)
@given(g=looped_multigraphs())
def test_the_edge_list_planner_matches_the_matrix_pattern_planner(g):
    # an off-diagonal entry -k^2 a_st - a_ts of M(k) adds terms of one
    # sign, so at every k != 0 its pattern is the non-loop edges both ways
    schedule = elimination_schedule(g)
    for k in (1, -1, 2, -2):
        assert schedule == matrix_pattern_schedule(_cleared_matrix(g, k))


def test_brute_force_examples():
    assert brute_force_spanning_trees(directed_cycle(3)) == 3
    assert brute_force_spanning_trees(
        DirectedMultigraph(2, ((0, 1), (0, 1)))
    ) == 2
    assert brute_force_spanning_trees(DirectedMultigraph(1, ((0, 0),))) == 1
    with pytest.raises(TooLargeError):
        brute_force_spanning_trees(
            DirectedMultigraph(2, tuple((0, 1) for _ in range(17)))
        )


def test_smith_normal_form_examples():
    assert smith_normal_form(IntMatrix.from_rows([[2, -1], [-1, 2]])) == [1, 3]
    lap4 = _cleared_matrix(directed_cycle(4), 1)
    reduced = IntMatrix.from_rows([row[1:] for row in lap4[1:]])
    factors = smith_normal_form(reduced)
    product = 1
    for f in factors:
        product *= f
    assert product == 4
    assert smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]])) == [0, 0]
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]


def _minor_gcd(rows, k):
    """gcd of all k x k minors, the invariant-factor product oracle."""
    import itertools
    import math

    n_rows, n_cols = len(rows), len(rows[0])
    g = 0
    for ridx in itertools.combinations(range(n_rows), k):
        for cidx in itertools.combinations(range(n_cols), k):
            minor = [[rows[i][j] for j in cidx] for i in ridx]
            g = math.gcd(g, cofactor_determinant(minor))
    return g


def test_smith_normal_form_against_minor_gcds():
    rng = random.Random(17)
    for _ in range(20):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        rows = [
            [rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)
        ]
        factors = smith_normal_form(IntMatrix.from_rows(rows))
        running = 1
        for k in range(1, min(n_rows, n_cols) + 1):
            running *= factors[k - 1]
            assert running == _minor_gcd(rows, k), (rows, factors, k)


def test_smith_normal_form_divisibility_chain():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows(random_matrix(rng, n, -6, 6))
        factors = smith_normal_form(m)
        for a, b in zip(factors, factors[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        det = abs(determinant(m))
        product = 1
        for f in factors:
            product *= f
        assert product == det


@settings(max_examples=40, deadline=None)
@given(g=connected_multigraphs())
def test_kirchhoff_matches_brute_force_on_random_graphs(g):
    assert kirchhoff_count(g) == brute_force_spanning_trees(g)


@settings(max_examples=40, deadline=None)
@given(g=connected_multigraphs(), data=st.data())
def test_kirchhoff_ignores_edge_orientation(g, data):
    flips = [data.draw(st.booleans()) for _ in g.edges]
    flipped = DirectedMultigraph(
        g.vertex_count,
        tuple(
            (t, s) if flip else (s, t)
            for (s, t), flip in zip(g.edges, flips)
        ),
    )
    assert kirchhoff_count(flipped) == kirchhoff_count(g)


def P(*coeffs):
    return IntPolynomial(coeffs)


def test_poly_matrix_determinant_examples():
    # [[-T^2]] and [[1 + T, 0], [0, -1 + T]]
    assert poly_matrix_determinant([[[0]], [[0]], [[-1]]]) == P(0, 0, -1)
    assert poly_matrix_determinant(
        [[[1, 0], [0, -1]], [[1, 0], [0, 1]]]
    ) == P(-1, 0, 1)
    assert poly_matrix_determinant([[[7]]]) == P(7)


def square_matrices(n):
    return st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )


@settings(max_examples=40, deadline=None)
@given(
    coefficients=st.tuples(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
    ).flatmap(
        lambda nd: st.lists(
            square_matrices(nd[0]), min_size=nd[1] + 1, max_size=nd[1] + 1
        )
    ),
    x=st.integers(min_value=10, max_value=10**6) | st.integers(
        min_value=-(10**6), max_value=-10
    ),
)
def test_poly_matrix_determinant_agrees_off_the_nodes(coefficients, x):
    # n x n coefficients of degree d <= 3 give a determinant of degree
    # <= n d <= 12, whose n d + 1 nodes all lie in [-6, 6]: x is not one
    n = len(coefficients[0])
    evaluated = [
        [sum(c[i][j] * x**k for k, c in enumerate(coefficients)) for j in range(n)]
        for i in range(n)
    ]
    det = poly_matrix_determinant(coefficients)
    assert poly_eval(det, x) == bareiss_determinant(evaluated)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.integers(min_value=-(10**30), max_value=10**30),
        min_size=1,
        max_size=20,
    ),
    extra=st.integers(min_value=0, max_value=5),
)
def test_interpolation_round_trips_big_coefficients(coeffs, extra):
    poly = IntPolynomial(tuple(coeffs))
    xs = _default_points(len(coeffs) + extra)
    assert _interpolate_integer(xs, [poly_eval(poly, x) for x in xs]) == poly


def test_interpolation_guard_rejects_non_polynomial_data():
    # data no integer polynomial of the allowed degree can produce
    with pytest.raises(NonIntegralInterpolationError):
        _interpolate_integer((0, 1, 2), (0, 0, 1))


def test_poly_matrix_determinant_rejects_non_square():
    with pytest.raises(NotSquareError):
        poly_matrix_determinant([[[1], [1]]])
    with pytest.raises(NotSquareError):
        poly_matrix_determinant([[[1]], [[1, 0], [0, 1]]])
    with pytest.raises(ValueError):
        poly_matrix_determinant([])


def test_cyclotomic_resultant_examples():
    # Res(Phi_{p^k}, x - a) = Phi_{p^k}(a): Phi_3(2) = 7, Phi_9(2) = 73
    assert cyclotomic_resultants(IntPolynomial((-2, 1)), 3, 2) == [7, 73]
    # non-monic: prod (2 zeta - 1) = 2^N Phi_{2^k}(1/2) = 3, 5, 17
    assert cyclotomic_resultants(IntPolynomial((-1, 2)), 2, 3) == [3, 5, 17]
    assert cyclotomic_resultants(IntPolynomial((-1, 2)), 2, 3)[2:] == [17]
    # Q(0) = 0: the root 0 contributes Phi(0) = 1
    assert cyclotomic_resultants(IntPolynomial((0, -2, 1)), 3, 2) == [7, 73]
    # a constant c gives c^N
    assert cyclotomic_resultants(IntPolynomial((3,)), 2, 3) == [3, 9, 81]
    assert cyclotomic_resultants(IntPolynomial((1, 1)), 2, 0) == []
    # Phi_{p^k} divides Q: that level's resultant is 0
    assert cyclotomic_resultants(IntPolynomial((1, 1)), 2, 3) == [0, 2, 2]
    assert cyclotomic_resultants(IntPolynomial((1, 1, 1)), 3, 3) == [0, 9, 9]
    x3_plus_x2 = IntPolynomial((0, 0, 1, 1))
    assert cyclotomic_resultants(x3_plus_x2, 2, 3) == [0, 2, 2]


def test_cyclotomic_resultants_validate_arguments():
    q = IntPolynomial((-2, 1))
    with pytest.raises(InvalidPrimeError):
        cyclotomic_resultants(q, 4, 2)
    with pytest.raises(ZeroPolynomialError):
        cyclotomic_resultants(IntPolynomial(), 2, 2)
    for levels in (True, -3):
        with pytest.raises(ValueError):
            cyclotomic_resultants(q, 3, levels)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.integers(-3, 3).filter(lambda c: c != 0),
    st.sampled_from(((2, 3), (3, 2), (5, 1))),
    st.data(),
)
def test_cyclotomic_resultants_match_the_sylvester_determinant(
    low, lead, prime_and_top, data
):
    # Q has degree 1..4, any leading coefficient (monic or not) and any
    # constant term (Q(0) = 0 included)
    coeffs = low + [lead]
    p, top = prime_and_top
    first = data.draw(st.integers(1, top))
    expected = [
        abs(
            bareiss_determinant(
                sylvester_matrix(cyclotomic_prime_power(p, k), coeffs)
            )
        )
        for k in range(first, top + 1)
    ]
    assert cyclotomic_resultants(IntPolynomial(coeffs), p, top)[first - 1 :] == expected


def _from_roots(c, roots):
    poly = (c,)
    for a in roots:
        poly = poly_mul(poly, (-a, 1))
    return list(poly)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 5),
    st.sampled_from((1, -1)),
    st.lists(st.integers(-4, 4), max_size=5),
    st.integers(0, 2),
    st.sampled_from((2, 3, 5, 7)),
)
@example(3, -1, [2, -1], 1, 3)
def test_root_power_step_raises_the_roots_to_the_p(size, sign, roots, zeros, p):
    # Q = c prod (x - a_i), non-monic, with a_i = 0 among the roots
    c = sign * size
    roots = roots + [0] * zeros
    assert _root_power(_from_roots(c, roots), p) == _from_roots(
        c**p, [a**p for a in roots]
    )


def test_cyclotomic_resultants_match_the_companion_oracle_on_charpolys(corpus):
    # Q = P(x - 1) of real charpolys, degree up to 2r, at levels 1..n0+3:
    # zero at k <= n0, where Phi_{p^k} divides Q.  With q = p^n0, Q is
    # x^a R(x^q), and |Res(Phi_{p^k}, Q)| = |Res(Phi_{p^(k-n0)}, R)|^q
    x_minus_1 = (-1, 1)
    checked = 0
    for g in corpus:
        profile = cycle_weight_profile(g)
        n0s = {p: stabilization_level(profile, p) for p in (2, 3, 5)}
        if all(n0 is None for n0 in n0s.values()):
            continue
        q = ()
        for i, coeff in enumerate(char_poly(g)):
            q = poly_add(q, poly_scale(poly_pow(x_minus_1, i), coeff))
        q = IntPolynomial(q)
        for p, n0 in n0s.items():
            if n0 is None:
                continue
            expected = companion_resultants(q.coefficients, p, 1, n0 + 3)
            assert expected[:n0] == [0] * n0, (g.name, p)
            assert cyclotomic_resultants(q, p, n0 + 3) == expected, (
                g.name,
                p,
            )
            step = p**n0
            a = min(i for i, c in enumerate(q) if c)
            assert all(c == 0 for i, c in enumerate(q) if (i - a) % step)
            r = q.coefficients[a::step]
            decimated = companion_resultants(r, p, 1, 3)
            assert [x**step for x in decimated] == expected[n0:], (g.name, p)
            assert cyclotomic_resultants(IntPolynomial(r), p, 3) == decimated
            checked += 1
    assert checked >= 90
