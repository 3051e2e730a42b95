import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voltage_tower import (
    ConstantVoltage,
    CycleWeightProfile,
    DirectedMultigraph,
    EmptyGraphError,
    NotConnectedError,
    adjacency_matrix,
    components,
    cycle_weight_profile,
    degree_profile,
    derive,
    directed_cycle,
    doubled,
    is_adjacency_normal,
    is_total_degree_constant,
)

from oracles import bfs_components, cycle_weight_gcd, tree_cycle_weight_profile


def test_edge_validation():
    with pytest.raises(ValueError):
        DirectedMultigraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        DirectedMultigraph(1, ((0, 0),), vertex_labels=("a", "b"))


def test_the_constructor_converts_nothing():
    edges = ((0, 1), (1, 1))
    assert DirectedMultigraph(2, edges).edges is edges
    for args, kwargs in (
        ((2, ((0.9, 1.7),)), {}),
        ((2, (("0", "1"),)), {}),
        ((2, ((True, False),)), {}),
        ((2, ((0, None),)), {}),
        ((2.5, ((0, 1),)), {}),
        ((True, ()), {}),
        ((-1, ()), {}),
        ((2, [(0, 1)]), {}),
        ((2, ([0, 1],)), {}),
        ((2, ((0, 1, 1),)), {}),
        ((2, ((0,),)), {}),
        ((2, ((0, -1),)), {}),
        ((2, ()), {"vertex_labels": ["a", "b"]}),
        ((2, ()), {"vertex_labels": ("a", 1)}),
        ((2, ()), {"name": None}),
    ):
        with pytest.raises(ValueError):
            DirectedMultigraph(*args, **kwargs)


def test_degree_profile_examples():
    prof = degree_profile(directed_cycle(3))
    assert prof.in_deg == (1, 1, 1)
    assert prof.out_deg == (1, 1, 1)
    assert prof.loop_count == (0, 0, 0)

    prof = degree_profile(DirectedMultigraph(1, ((0, 0), (0, 0))))
    assert prof.in_deg == (2,)
    assert prof.out_deg == (2,)
    assert prof.loop_count == (2,)

    prof = degree_profile(DirectedMultigraph(2, ((0, 1), (0, 1))))
    assert prof.out_deg == (2, 0)
    assert prof.in_deg == (0, 2)


def test_degree_sums_match_edge_count(corpus):
    for g in corpus:
        prof = degree_profile(g)
        assert sum(prof.in_deg) == sum(prof.out_deg) == len(g.edges)


def test_is_connected():
    assert len(components(directed_cycle(3))) == 1
    assert len(components(DirectedMultigraph(2, ()))) == 2
    assert len(components(DirectedMultigraph(3, ((0, 1),)))) == 2
    assert len(components(DirectedMultigraph(1, ()))) == 1
    with pytest.raises(EmptyGraphError):
        components(DirectedMultigraph(0, ()))


def test_cycle_weight_profile_examples():
    assert cycle_weight_profile(directed_cycle(3)) == CycleWeightProfile(
        "cyclic", 3
    )
    assert cycle_weight_profile(DirectedMultigraph(1, ((0, 0),))) == (
        CycleWeightProfile("cyclic", 1)
    )
    assert cycle_weight_profile(DirectedMultigraph(2, ((0, 1),))).is_acyclic
    assert cycle_weight_profile(
        DirectedMultigraph(2, ((0, 1), (1, 0)))
    ) == CycleWeightProfile("cyclic", 2)


def test_cycle_weight_profile_requires_connected():
    with pytest.raises(NotConnectedError):
        cycle_weight_profile(DirectedMultigraph(2, ()))


def test_cycle_weight_profile_against_enumeration(corpus):
    for g in corpus:
        if len(g.edges) > 10:
            continue
        profile = cycle_weight_profile(g)
        oracle = cycle_weight_gcd(g)
        if profile.is_acyclic:
            # the doubled graph still has out-and-back cycles, all weight 0
            assert oracle in (None, 0)
        else:
            assert profile.weight_gcd == oracle


def test_non_tree_edge_count(corpus):
    for g in corpus:
        profile = cycle_weight_profile(g)
        non_tree = len(g.edges) - (g.vertex_count - 1)
        assert (non_tree == 0) == profile.is_acyclic


def test_weight_gcd_invariant_under_root_choice(corpus):
    # the union-find's trees, roots and potentials follow the vertex
    # numbers; swapping a drawn vertex with 0 changes them, not the lattice
    rng = random.Random(7)
    for g in corpus:
        base = cycle_weight_profile(g)
        for _ in range(3):
            root = rng.randrange(g.vertex_count)
            swap = {0: root, root: 0}
            relabeled = DirectedMultigraph(
                g.vertex_count,
                tuple((swap.get(s, s), swap.get(t, t)) for s, t in g.edges),
            )
            assert cycle_weight_profile(relabeled) == base


def outcome(f, g):
    """What ``f(g)`` returns, or the class and message of what it raises."""
    try:
        return f(g)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def any_multigraphs(draw):
    """Multigraphs on 0 to 9 vertices, loops and parallel edges allowed,
    connected or not."""
    n = draw(st.integers(min_value=0, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=14)) if n else []
    return DirectedMultigraph(n, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(g=any_multigraphs())
@example(g=DirectedMultigraph(0, ()))
@example(g=DirectedMultigraph(3, ((0, 1), (1, 1))))
@example(
    # a reversed chain builds a path-shaped union-find tree, 0 deepest, so
    # the finds of the closing edge and the chord halve a long path
    g=DirectedMultigraph(
        8, tuple((i + 1, i) for i in range(7)) + ((0, 7), (3, 5))
    )
)
def test_cycle_weights_match_the_tree_marking_walk(g):
    # the gcd over every edge equals the gcd over the non-tree edges, and
    # the edge count decides acyclicity, with the same errors in the same
    # order: no vertices, then not connected
    assert outcome(cycle_weight_profile, g) == outcome(
        tree_cycle_weight_profile, g
    )


@settings(max_examples=300, deadline=None)
@given(g=any_multigraphs())
@example(g=DirectedMultigraph(0, ()))
@example(g=DirectedMultigraph(4, ((1, 2), (0, 1), (3, 3))))
def test_union_find_matches_the_breadth_first_walk(g):
    assert outcome(components, g) == outcome(bfs_components, g)


def derived_levels(corpus):
    """((name, p, n), level-n derived graph) for every level of every
    corpus graph at p = 2, 3 up to 2,000 vertices."""
    for g in corpus:
        for p in (2, 3):
            n = 0
            while g.vertex_count * p**n <= 2000:
                yield (g.name, p, n), derive(g, ConstantVoltage(p), n).graph
                n += 1


def test_union_find_matches_the_breadth_first_walk_on_derived_graphs(corpus):
    for key, derived in derived_levels(corpus):
        assert components(derived) == bfs_components(derived), key


def test_cycle_weights_match_the_tree_marking_walk_on_derived_graphs(corpus):
    # deep union-find trees, whose potentials path halving must carry
    # along, and disconnected levels past n0
    for key, derived in derived_levels(corpus):
        assert outcome(cycle_weight_profile, derived) == outcome(
            tree_cycle_weight_profile, derived
        ), key


@st.composite
def connected_multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    extra_count = draw(st.integers(min_value=0, max_value=4))
    extra = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(extra_count)
    ]
    return DirectedMultigraph(n, tuple(tree + extra))


@settings(max_examples=40, deadline=None)
@given(g=connected_multigraphs(), data=st.data())
def test_weight_gcd_invariant_under_relabeling(g, data):
    perm = data.draw(st.permutations(range(g.vertex_count)))
    relabeled = DirectedMultigraph(
        g.vertex_count, tuple((perm[s], perm[t]) for s, t in g.edges)
    )
    assert cycle_weight_profile(relabeled) == cycle_weight_profile(g)


def test_balance_and_total_degree():
    prof = degree_profile(directed_cycle(3))
    assert prof.in_deg == prof.out_deg
    assert is_total_degree_constant(directed_cycle(3)) == 2
    fork = DirectedMultigraph(3, ((0, 1), (0, 2)))
    prof = degree_profile(fork)
    assert prof.in_deg != prof.out_deg
    assert is_total_degree_constant(fork) is None


def test_adjacency_matrix_and_normality():
    assert adjacency_matrix(directed_cycle(3)) == [
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 0],
    ]
    assert is_adjacency_normal(directed_cycle(3))
    parallel = DirectedMultigraph(2, ((0, 1), (0, 1)))
    assert adjacency_matrix(parallel) == [[0, 2], [0, 0]]
    assert not is_adjacency_normal(parallel)
    loops = DirectedMultigraph(1, ((0, 0), (0, 0)))
    assert adjacency_matrix(loops) == [[2]]


def test_symmetric_edge_sets_are_normal(corpus):
    for g in corpus:
        assert is_adjacency_normal(doubled(g))
