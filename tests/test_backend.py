from hypothesis import example, given, settings
from hypothesis import strategies as st

from voltage_tower import DirectedMultigraph
from voltage_tower.backend import bareiss_determinant, replay_determinant
from voltage_tower.linalg import elimination_schedule

from oracles import dense_bareiss, fraction_determinant


def test_kernels_do_not_mutate_input():
    rows = [[1, 2], [3, 4]]
    snapshot = [r[:] for r in rows]
    bareiss_determinant(rows)
    assert rows == snapshot


def test_big_integer_entries_stay_exact():
    rows = [
        [10**40, 1, 0],
        [0, -(10**35), 2],
        [3, 0, 10**30],
    ]
    expected = (
        10**40 * (-(10**35)) * 10**30
        + 1 * 2 * 3
        - 0
        - 0
        - 0
        - 0
    )
    assert bareiss_determinant(rows) == expected


NONZERO = (
    st.sampled_from((-3, -2, -1, 1, 2, 3))
    | st.integers(min_value=10**30, max_value=10**40)
    | st.integers(min_value=-(10**40), max_value=-(10**30))
)


@st.composite
def sparse_matrices(draw):
    """Square matrices of size 0 to 10 with at most three nonzero entries
    a row, small or with 30 or more digits: zero multipliers, zero pivots
    and singular matrices are all common."""
    n = draw(st.integers(min_value=0, max_value=10))
    rows = []
    for _ in range(n):
        row = [0] * n
        for j in draw(st.sets(st.integers(0, n - 1), max_size=3)):
            row[j] = draw(NONZERO)
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=sparse_matrices())
# row 1 turns zero in the pivot column of step 1 and is swapped with row 2
@example(rows=[[2, 3, 1, 1], [4, 6, 5, 1], [0, 5, 1, 2], [0, 0, 1, 3]])
# at step 1 rows 1 and 2 are both zero in the pivot column, so the swap
# reaches row 3
@example(rows=[[-3, 0, -3, 1], [-1, 0, 0, 0], [-1, 0, 0, -1], [0, 2, 0, 0]])
# triangular: a zero multiplier still scales its row by pivot / prev
@example(rows=[[2, 1], [0, 3]])
def test_sparse_kernel_matches_dense_and_rational_elimination(rows):
    snapshot = [r[:] for r in rows]
    det = bareiss_determinant(rows)
    assert rows == snapshot
    assert det == dense_bareiss(rows)
    assert det == fraction_determinant(rows)


@st.composite
def patterned_matrices(draw):
    """Edges of a multigraph on 0 to 10 vertices, loops and parallel edges
    allowed; a matrix whose entries off the diagonal and off the non-loop
    edges, taken both ways, are zero; and a schedule length, mostly the
    vertex count.  The other entries are zero, small or have 30 or more
    digits, so numerically zero pivots and cancelled fill are common."""
    n = draw(st.integers(min_value=0, max_value=10))
    edges = []
    if n:
        index = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    linked = set(edges) | {(t, s) for s, t in edges}
    entry = st.just(0) | NONZERO
    rows = [
        [draw(entry) if i == j or (i, j) in linked else 0 for j in range(n)]
        for i in range(n)
    ]
    length = draw(st.just(n) | st.integers(0, n))
    return tuple(edges), rows, length


@settings(max_examples=300, deadline=None)
@given(case=patterned_matrices())
# a zero first pivot with a row left to update: no determinant
@example(case=(((0, 1),), [[0, 2], [3, 1]], 2))
# vertex 0 has no neighbour and a zero pivot, so its row is zero
@example(case=(((1, 2),), [[0, 0, 0], [0, 1, 2], [0, 3, 4]], 3))
# two blocks: row 2, untouched by the first, is brought up to date by
# the factor prev / div[2] before it serves as the pivot of the second
@example(
    case=(
        ((0, 1), (2, 3)),
        [[2, 3, 0, 0], [5, 7, 0, 0], [0, 0, 11, 13], [0, 0, 17, 19]],
        4,
    )
)
# diagonal: the last row is never updated and owes the final scaling
@example(case=((), [[2, 0], [0, 3]], 2))
# a triangle's Laplacian, cut one step short: the leading minor of order
# 2 counts its 3 spanning trees
@example(
    case=(((0, 1), (1, 2), (2, 0)), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 2)
)
def test_replay_of_the_minimum_degree_schedule_matches_dense_elimination(case):
    edges, rows, length = case
    snapshot = [r[:] for r in rows]
    schedule = elimination_schedule(DirectedMultigraph(len(rows), edges))
    det = replay_determinant(schedule[:length], rows)
    assert rows == snapshot
    # the pivot of step j is the leading principal minor of order j in
    # schedule order; the first zero one decides: None while it has rows
    # to update, else a zero row, so every later leading minor is 0 too
    order = [v for v, _, _ in schedule]

    def lead(j):
        return dense_bareiss([[rows[a][b] for b in order[:j]] for a in order[:j]])

    for j, (_, _, updates) in enumerate(schedule[:length], 1):
        if lead(j) == 0:
            if updates:
                assert det is None
            else:
                assert det == 0 == lead(length)
            break
    else:
        assert det == lead(length)
