"""One function, ``graph.require_connected``, raises for a graph that is
not connected, and every connectivity decision reads the roots of one
union-find over the edge list; the undirected adjacency is built once per
call, by the walks that need neighbours."""

import ast

import pytest

import voltage_tower
from voltage_tower import (
    CraterSpec,
    VolcanoSpec,
    char_poly,
    directed_cycle,
    doubled,
    is_double_crater,
    kirchhoff_count,
    recognize_volcano,
    volcano,
)
from voltage_tower import generators, graph, linalg

from ast_guards import calls_or_raises, names, owners


def test_not_connected_error_is_raised_only_by_require_connected():
    assert calls_or_raises("NotConnectedError") == {
        ("graph.py", "require_connected")
    }


def test_empty_graph_error_is_raised_only_by_components():
    assert calls_or_raises("EmptyGraphError") == {("graph.py", "components")}


def test_one_union_find_serves_connectivity_and_the_cycle_weights():
    # the components, the cycle weights' potentials and the oracle's
    # spanning-tree test read roots off one union-find; no second walk
    # decides connectivity
    assert owners(
        lambda node: isinstance(node, ast.Call) and "_union_find" in names(node.func)
    ) == {
        ("graph.py", "components"),
        ("graph.py", "cycle_weight_profile"),
        ("linalg.py", "brute_force_spanning_trees"),
    }


def test_the_rule_is_not_exported():
    assert not hasattr(voltage_tower, "require_connected")


@pytest.mark.parametrize(
    "f, g",
    [
        (char_poly, volcano(VolcanoSpec(2, 2, CraterSpec.cycle(3)))),
        (kirchhoff_count, volcano(VolcanoSpec(2, 2, CraterSpec.cycle(3)))),
        (recognize_volcano, volcano(VolcanoSpec(2, 2, CraterSpec.cycle(3)))),
        (is_double_crater, doubled(directed_cycle(4))),
    ],
    ids=["char_poly", "kirchhoff_count", "recognize_volcano", "is_double_crater"],
)
def test_one_adjacency_build_per_call(f, g, monkeypatch):
    builds = []
    build = graph.neighbours

    def counted(h):
        builds.append(h)
        return build(h)

    for module in (graph, linalg, generators):
        monkeypatch.setattr(module, "neighbours", counted)
    f(g)
    assert builds == [g]
