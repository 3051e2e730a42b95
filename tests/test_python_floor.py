"""The library parses as the oldest Python that ``pyproject.toml``
declares."""

import ast
import re
from pathlib import Path

import pytest

import voltage_tower

PACKAGE = Path(voltage_tower.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_floor():
    found = re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M
    )
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_every_module_parses_as_the_declared_floor():
    floor = declared_floor()
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_the_floor_check_rejects_newer_syntax():
    # except* arrived in 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=declared_floor())
