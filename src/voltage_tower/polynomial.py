"""Exact big-integer polynomials in one variable T.

Coefficients are stored ascending (index i holds the T^i coefficient)
with trailing zeros trimmed; the zero polynomial has no coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = [int(c) for c in coeffs]
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

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def taylor_shift(self, a: int) -> "IntPolynomial":
        """P(x + a), by repeated synthetic division of the coefficient
        list in place: O(degree^2) additions, no polynomial products."""
        c = list(self.coefficients)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += a * c[j + 1]
        return IntPolynomial(c)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for c in self.coefficients))

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*T")
            else:
                parts.append(f"{c}*T^{i}")
        return " + ".join(parts).replace("+ -", "- ")
