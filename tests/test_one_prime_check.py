"""One function, ``arith.require_prime``, decides what a valid p is."""

import ast
from pathlib import Path

import voltage_tower

PACKAGE = Path(voltage_tower.__file__).parent


def invalid_prime_errors(path):
    """(module, top-level definition) of each place the module calls or
    raises InvalidPrimeError."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for stmt in tree.body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                target = node.func
            elif isinstance(node, ast.Raise):
                target = node.exc
            else:
                continue
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if name == "InvalidPrimeError":
                yield path.name, owner


def test_invalid_prime_error_is_raised_only_by_require_prime():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        found.update(invalid_prime_errors(path))
    assert found == {("arith.py", "require_prime")}
