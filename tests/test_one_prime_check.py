"""One function, ``arith.require_prime``, decides what a valid p is."""

from ast_guards import calls_or_raises


def test_invalid_prime_error_is_raised_only_by_require_prime():
    found = calls_or_raises("InvalidPrimeError")
    assert found == {("arith.py", "require_prime")}
