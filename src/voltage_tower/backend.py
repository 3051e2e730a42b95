"""Bareiss fraction-free elimination, the package's determinant kernel.

Step k of Bareiss elimination replaces every row i below the pivot by
(pivot_k * row_i - m_ik * row_k) / pivot_{k-1}.  When the multiplier m_ik
is zero this only scales the row by pivot_k / pivot_{k-1}, and successive
scalings telescope.  So the kernel leaves such a row as it is and keeps in
``div[i]`` the pivot it was last brought up to date with: the exact
Bareiss row is always the stored row times prev / div[i], with prev the
latest pivot.  On the sparse matrices the package eliminates, most
multipliers are zero and most row updates are skipped.
"""

from __future__ import annotations


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
