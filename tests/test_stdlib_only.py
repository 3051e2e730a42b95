"""The library needs nothing beyond the standard library at runtime."""

import ast
import sys
from pathlib import Path

import voltage_tower

PACKAGE = Path(voltage_tower.__file__).parent


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        for name in absolute_imports(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, (path.name, name)
            # exact integers throughout: no rational arithmetic
            assert top != "fractions", (path.name, name)
