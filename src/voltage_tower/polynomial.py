"""Exact big-integer polynomials in one variable T.

Coefficients are ``int`` (a bool is not one), stored ascending (index i
holds the T^i coefficient) with trailing zeros trimmed; the zero
polynomial has no coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .arith import require_int


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    for c in out:
        require_int("coefficient", c)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPolynomial:
    coefficients: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _trim(self.coefficients))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coefficients)

    def taylor_shift(self, a: int) -> "IntPolynomial":
        """P(x + a), by repeated synthetic division of the coefficient
        list in place: O(degree^2) additions, no polynomial products."""
        c = list(self.coefficients)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += a * c[j + 1]
        return IntPolynomial(c)
