"""Bareiss fraction-free elimination, the package's determinant kernel."""

from __future__ import annotations


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination.

    Every division below is exact (the running divisor is the previous
    pivot, itself a minor of the input), so the arithmetic never leaves
    the integers.
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
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]
