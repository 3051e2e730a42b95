"""One AST walk for the guard tests: which top-level definitions of the
package hold a node that a predicate accepts."""

import ast
from pathlib import Path

import voltage_tower

PACKAGE = Path(voltage_tower.__file__).parent


def owners(predicate):
    """(module, top-level definition) of each node of the package that
    ``predicate`` accepts; module-level statements belong to
    ``<module>``."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = getattr(stmt, "name", "<module>")
            if any(predicate(node) for node in ast.walk(stmt)):
                found.add((path.name, owner))
    return found


def names(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.FunctionDef):
        return {node.name}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return set()


def calls_or_raises(name):
    """(module, top-level definition) of each place the package calls or
    raises ``name``."""

    def uses(node):
        if isinstance(node, ast.Call):
            return name in names(node.func)
        return isinstance(node, ast.Raise) and name in names(node.exc)

    return owners(uses)
