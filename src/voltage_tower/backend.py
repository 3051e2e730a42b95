"""Exact determinants by Bareiss fraction-free elimination.

Step k of Bareiss elimination replaces every row i below the pivot by
(pivot_k * row_i - m_ik * row_k) / pivot_{k-1}; each entry it yields is a
minor of the input, so every division is exact.

``replay_determinant`` serves every graph determinant: the charpoly's r + 1
evaluations of M(k) = Dk - Ak^2 - A^t and the Kirchhoff minor of M(1).
``elimination_schedule`` works out an elimination order and its fill once,
as a schedule, and the replay visits only the scheduled rows and columns,
with lazy divisors for the rows a pivot leaves alone.  On a zero pivot with
rows left to update it returns None, and calls no other kernel.
``bareiss_determinant``, with row swaps, serves the dense matrices that come
from no graph: the resultant matrices and ``linalg.determinant``.
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


def elimination_schedule(rows: list[list[int]]) -> Schedule:
    """Greedy minimum-degree elimination of the off-diagonal pattern of
    ``rows``, made symmetric ((i, j) with rows[i][j] or rows[j][i] nonzero),
    ties broken by the least vertex, as the schedule that
    ``replay_determinant`` follows.

    Eliminating a vertex joins its remaining neighbours, as elimination
    fills them in; taking the least-connected vertex first keeps that fill,
    and so the rows and columns each step touches, small.  One step
    (v, cols, updates) per vertex in order: v's remaining columns, itself
    included, and each remaining neighbour u with its columns after the
    fill, itself included.
    """
    r = len(rows)
    nbrs = [
        {j for j in range(r) if j != i and (rows[i][j] or rows[j][i])}
        for i in range(r)
    ]
    left = set(range(r))
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


def replay_determinant(schedule: Schedule, rows: list[list[int]]) -> int | None:
    """Exact determinant by fraction-free elimination along a schedule
    worked out on the sparsity pattern of ``rows``.

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
    left sits on a zero row of the remaining block, so the determinant is
    0.  The input is not modified.
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
