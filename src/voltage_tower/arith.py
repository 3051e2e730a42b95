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
    """p-adic valuation v_p(n) of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError("valuation needs p >= 2")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v

