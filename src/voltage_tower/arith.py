"""Small exact-integer helpers used throughout the package."""

import math

from .errors import InvalidPrimeError, TooLargeError

# Largest p accepted: trial division then tries at most 2^16 divisors.
PRIME_CAP = 2**32


def require_prime(p: int) -> None:
    """The one check of a voltage modulus p: InvalidPrimeError unless p is
    an ``int`` (not a bool) and prime; TooLargeError above PRIME_CAP,
    before any trial division."""
    if type(p) is not int:
        raise InvalidPrimeError(f"p must be an integer, not {p!r}")
    check_cap("p = {count} exceeds the cap of {cap}", p, PRIME_CAP)
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise InvalidPrimeError(f"{p} is not prime")


def require_int(name, value, low=None, high=None, error=ValueError) -> None:
    """The one check of an int argument: ``error`` unless ``value`` is an
    ``int`` (a bool is not one), at least ``low`` and below ``high`` when
    they are given."""
    if type(value) is not int:
        raise error(f"{name} must be an int, not {type(value).__name__}")
    if high is not None and not low <= value < high:
        raise error(f"need {low} <= {name} < {high}")
    if low is not None and value < low:
        raise error(f"need {name} >= {low}")


def check_cap(message: str, count: int, cap: int, p: int = 2, n: int = 0) -> None:
    """The one size check: TooLargeError when count * p^n exceeds ``cap``,
    decided without forming p^n for a huge n (p >= 2).  The error reads
    ``message`` formatted with ``count``, ``p``, ``n`` and ``cap``; a
    count or n with too many digits to print is stated by its bit
    length."""
    total = count
    for _ in range(n):
        if total == 0 or total > cap:
            break
        total *= p
    if total > cap:
        raise TooLargeError(
            message.format(count=_stated(count), p=p, n=_stated(n), cap=cap)
        )


def _stated(value: int) -> str:
    # str() refuses an int past sys.get_int_max_str_digits(), so such a
    # value is stated by its size
    try:
        return str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit int>"


def valuation(n: int, p: int) -> int:
    """p-adic valuation v_p(n) of a nonzero integer.

    Dividing out one p at a time is quadratic in the size of n, and a
    tower's kappa can have a valuation in the hundreds of thousands.  At
    p = 2 the valuation is the index of the lowest set bit; otherwise p,
    p^2, p^4, ... are divided out while they divide n, which leaves a
    valuation below the first power that failed, and the same powers,
    taken from the largest down, remove it bit by bit.
    """
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError("valuation needs p >= 2")
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    n = abs(n)
    powers = []  # p^(2^i)
    power = p
    v = 0
    while n % power == 0:
        n //= power
        v += 1 << len(powers)
        powers.append(power)
        power *= power
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v

