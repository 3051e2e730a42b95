"""Exact determinants by Bareiss fraction-free elimination.

Step k of Bareiss elimination replaces every row i below the pivot by
(pivot_k * row_i - m_ik * row_k) / pivot_{k-1}; each entry it yields is a
minor of the input, so every division is exact.

``replay_determinant`` serves every graph determinant: the charpoly's
r - c + 1 evaluations of M(k) = Dk - Ak^2 - A^t, c the least x-order of a
Leibniz term of det M(x), and the Kirchhoff count of M(1).  It follows a
``Schedule``, an elimination order and its fill planned once per graph by
``linalg.elimination_schedule``, visits only the scheduled rows and
columns, with lazy divisors for the rows a pivot leaves alone, and on a
zero pivot with rows left to update returns None.  ``bareiss_determinant``,
with row swaps, serves the matrices that come from no graph: the resultant
matrices and ``linalg.determinant``.
"""

from __future__ import annotations

# (v, cols, updates) per pivot v, in elimination order; see replay_determinant
Schedule = list[tuple[int, list[int], list[tuple[int, list[int]]]]]


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination with row swaps.

    Every row below the pivot is updated at every step and divided by the
    previous pivot; the division is exact, for the result is a minor of
    the input.  A zero pivot is swapped with the first row below it that
    is nonzero in the pivot column, flipping the sign; with no such row
    the determinant is 0.  The empty matrix has determinant 1.  The input
    is not modified.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def replay_determinant(schedule: Schedule, rows: list[list[int]]) -> int | None:
    """Exact determinant by fraction-free elimination along a schedule
    worked out on the sparsity pattern of ``rows``; a schedule cut short
    gives the leading principal minor of its length, in schedule order.

    One step (v, cols, updates) per row, in elimination order: row v is
    the pivot, ``cols`` are its columns not yet eliminated, v included,
    and ``updates`` pairs each row u that v updates with u's columns after
    the fill, u included.  Rows and columns keep their indices, so pivot v
    sits at (v, v): the schedule's order acts as a symmetric permutation,
    which changes no determinant.  An entry the schedule never visits must
    be zero.

    A row that pivot v does not update has a zero multiplier, so the
    Bareiss step would only scale it by pivot / prev, and successive
    scalings telescope.  The row is left as it is, and ``div[u]`` keeps
    the pivot it was last brought up to date with: stored row u times
    prev / div[u] is the Bareiss row, whose entries are minors of the
    input.  So every division below is exact: updating row u divides by
    div[u] in place of prev, and a pivot row is brought up to date by the
    factor prev / div[v] before it is used.  Each pivot is a leading
    principal minor in schedule order.  One that is zero with rows left to
    update makes the order unusable, and the result is None; one with none
    left sits on a zero row of the remaining block, so every leading
    minor from there on, and the result, is 0.  The input is not
    modified.
    """
    m = [list(r) for r in rows]
    div = [1] * len(m)
    prev = 1
    for v, cols, updates in schedule:
        row_v = m[v]
        if div[v] != prev:
            d = div[v]
            for j in cols:
                row_v[j] = row_v[j] * prev // d
        pivot = row_v[v]
        if pivot == 0:
            return None if updates else 0
        for u, cols_u in updates:
            row_u = m[u]
            factor = row_u[v]
            d = div[u]
            for j in cols_u:
                row_u[j] = (pivot * row_u[j] - factor * row_v[j]) // d
            div[u] = pivot
        prev = pivot
    return prev
