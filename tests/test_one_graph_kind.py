"""Every graph is a directed multigraph: a constant voltage assignment
gives each edge its value along the edge's orientation, so no graph kind
without one is represented anywhere in the package."""

import ast

from ast_guards import owners


def test_no_module_reads_or_passes_an_undirected_flag():
    def flag(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "undirected"
        return isinstance(node, ast.keyword) and node.arg == "undirected"

    assert owners(flag) == set()
