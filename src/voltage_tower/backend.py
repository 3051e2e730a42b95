"""Bareiss fraction-free elimination, the package's determinant kernel.

Step k of Bareiss elimination replaces every row i below the pivot by
(pivot_k * row_i - m_ik * row_k) / pivot_{k-1}.  When the multiplier m_ik
is zero this only scales the row by pivot_k / pivot_{k-1}, and successive
scalings telescope.  So the kernel leaves such a row as it is and keeps in
``div[i]`` the pivot it was last brought up to date with: the exact
Bareiss row is always the stored row times prev / div[i], with prev the
latest pivot.  On the sparse matrices the package eliminates, most
multipliers are zero and most row updates are skipped.

``bareiss_determinant`` finds those rows itself and serves any single
matrix.  ``replay_determinant`` serves many matrices of one sparsity
pattern, the charpoly's r + 1 evaluations: the caller works out the
elimination order and its fill once, as a schedule, and the replay visits
only the scheduled rows and columns, under the same invariant.  It falls
back to ``bareiss_determinant`` on a numerically zero pivot.
"""

from __future__ import annotations

# (v, cols, updates) per pivot v, in elimination order; see replay_determinant
Schedule = list[tuple[int, list[int], list[tuple[int, list[int]]]]]


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination, skipping the rows
    whose multiplier in the pivot column is zero.

    Invariant: stored row i times prev / div[i] is the Bareiss row, whose
    entries are minors of the input and so integers.  Each division below
    yields an entry of such a row and is therefore exact: updating row i
    divides by div[i] in place of prev, a pivot row is brought up to date
    by the factor prev / div[k] before it is used, and the last entry is
    scaled by prev / div[n - 1].  Row swaps carry their divisors along.
    The input is not modified.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    div = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    div[k], div[i] = div[i], div[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        if div[k] != prev:
            for j in range(k, n):
                row_k[j] = row_k[j] * prev // div[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            if factor == 0:
                continue
            d = div[i]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // d
            row_i[k] = 0
            div[i] = pivot
        prev = pivot
    return sign * (m[n - 1][n - 1] * prev // div[n - 1])


def replay_determinant(schedule: Schedule, rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination along a schedule
    worked out on the sparsity pattern of ``rows``.

    One step (v, cols, updates) per row, in elimination order: row v is
    the pivot, ``cols`` are its columns not yet eliminated, v included,
    and ``updates`` pairs each row u that v updates with u's columns after
    the fill, u included.  Rows and columns keep their indices, so pivot v
    sits at (v, v): the schedule's order acts as a symmetric permutation,
    which changes no determinant.  An entry the schedule never visits must
    be zero.

    The divisors follow ``bareiss_determinant``: stored row u times
    prev / div[u] is the Bareiss row, so every division is exact.  A pivot
    that is zero with rows left to update makes the order unusable, and
    the matrix goes to ``bareiss_determinant`` instead; one with none left
    sits on a zero row of the remaining block, so the determinant is 0.
    The input is not modified.
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
            return bareiss_determinant(rows) if updates else 0
        for u, cols_u in updates:
            row_u = m[u]
            factor = row_u[v]
            d = div[u]
            for j in cols_u:
                row_u[j] = (pivot * row_u[j] - factor * row_v[j]) // d
            div[u] = pivot
        prev = pivot
    return prev
