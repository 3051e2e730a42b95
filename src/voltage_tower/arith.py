"""Small exact-integer helpers used throughout the package."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are small moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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

