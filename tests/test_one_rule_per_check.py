"""One function, ``arith.check_cap``, raises TooLargeError, and the exit
status of a library error is its class's ``exit_code``: ``cli`` catches
library errors by their base class only."""

import ast

import pytest

from voltage_tower.errors import VoltageTowerError

from ast_guards import PACKAGE, calls_or_raises

# The exit codes the cli docstring and the README document.
EXIT_CODES = {
    "VoltageTowerError": 1,
    "NonIntegralInterpolationError": 1,
    "NotSquareError": 1,
    "StructureViolationError": 1,
    "ZeroPolynomialError": 1,
    "DocumentError": 2,
    "EmptyGraphError": 2,
    "InvalidPrimeError": 2,
    "InvalidSpecError": 2,
    "NotConnectedError": 2,
    "NotAUnitError": 3,
    "NoTowerError": 4,
    "TooLargeError": 6,
}


def error_classes(cls=VoltageTowerError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


def test_too_large_error_is_raised_only_by_check_cap():
    found = calls_or_raises("TooLargeError")
    assert found == {("arith.py", "check_cap")}


def test_cli_catches_no_library_error_subclass():
    path = PACKAGE / "cli.py"
    caught = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for name in ast.walk(node.type):
                caught.add(getattr(name, "id", None) or getattr(name, "attr", None))
    subclasses = {cls.__name__ for cls in error_classes()} - {"VoltageTowerError"}
    assert "VoltageTowerError" in caught
    assert not caught & subclasses


@pytest.mark.parametrize("cls", list(error_classes()), ids=lambda cls: cls.__name__)
def test_each_error_class_has_its_documented_exit_code(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]
