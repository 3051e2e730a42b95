"""Every graph determinant goes through ``backend.replay_determinant`` on
matrices from ``linalg._cleared_matrix``, planned by
``linalg.elimination_schedule``: dense Bareiss serves only the matrices
that come from no graph, the replay calls no other kernel, no second
builder writes a graph matrix, no second planner reads one, and one
builder writes the adjacency of the undirected image."""

import ast
import builtins

from ast_guards import PACKAGE, names, owners


def test_dense_bareiss_serves_only_matrices_from_no_graph():
    assert owners(lambda node: "bareiss_determinant" in names(node)) == {
        ("backend.py", "bareiss_determinant"),
        ("linalg.py", "<module>"),
        ("linalg.py", "determinant"),
        ("linalg.py", "cyclotomic_resultants"),
    }


def test_the_replay_calls_no_other_kernel():
    path = PACKAGE / "backend.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    replay = next(
        stmt
        for stmt in tree.body
        if getattr(stmt, "name", None) == "replay_determinant"
    )
    called = {
        name
        for node in ast.walk(replay)
        if isinstance(node, ast.Call)
        for name in names(node.func)
    }
    assert called
    assert called <= set(dir(builtins))


def test_one_planner_serves_both_graph_determinants():
    # defined next to the matrix builder, from the edge list, and called
    # by the public Kirchhoff count and by the charpoly's cap-and-plan
    # step, whose schedule the charpoly and kappa share; that each entry
    # point plans once is counted in test_iwasawa
    assert owners(
        lambda node: isinstance(node, ast.FunctionDef)
        and node.name == "elimination_schedule"
    ) == {("linalg.py", "elimination_schedule")}
    assert owners(
        lambda node: isinstance(node, ast.Call)
        and "elimination_schedule" in names(node.func)
    ) == {
        ("linalg.py", "kirchhoff_count"),
        ("iwasawa.py", "_charpoly_schedule"),
    }


def test_the_backend_imports_nothing_from_the_package():
    path = PACKAGE / "backend.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]


def entry_writes(node):
    """Assignments to an entry m[i][j] of a list of rows."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    else:
        return []
    return [
        t
        for t in targets
        if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Subscript)
    ]


def counts_one(node):
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.value, ast.Constant)
        and node.value.value == 1
    )


def test_one_builder_writes_a_graph_matrix():
    # besides M(k), only the edge counters write matrix entries, one edge
    # at a time; a Laplacian or node-matrix builder anywhere else fails here
    assert owners(lambda node: entry_writes(node) and not counts_one(node)) == {
        ("linalg.py", "_cleared_matrix")
    }
    assert owners(entry_writes) == {
        ("linalg.py", "_cleared_matrix"),
        ("graph.py", "adjacency_matrix"),
        ("graph.py", "neighbours"),
    }


def per_vertex_map(node):
    """A list of empty containers, one per vertex: ``[set() for ...]``,
    ``[[] for ...]`` and the like."""
    if not isinstance(node, ast.ListComp):
        return False
    elt = node.elt
    if isinstance(elt, (ast.List, ast.Set)):
        return not elt.elts
    if isinstance(elt, ast.Dict):
        return not elt.keys
    return isinstance(elt, ast.Call) and not elt.args and bool(
        names(elt.func) & {"set", "list", "dict", "Counter", "defaultdict"}
    )


def test_one_builder_writes_the_undirected_adjacency():
    # the planner and the recognizers keep no neighbour map of their own,
    # and nothing else is built per vertex: the components and the cycle
    # weights' potentials come from a union-find over the edge list, so
    # only the walks that need neighbours read the adjacency
    assert owners(per_vertex_map) == {("graph.py", "neighbours")}
    assert owners(
        lambda node: isinstance(node, ast.Call) and "neighbours" in names(node.func)
    ) == {
        ("linalg.py", "elimination_schedule"),
        ("generators.py", "_recognize"),
        ("generators.py", "is_double_crater"),
    }
