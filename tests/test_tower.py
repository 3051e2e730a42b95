import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voltage_tower import (
    ConstantVoltage,
    DirectedMultigraph,
    InvalidPrimeError,
    NoTowerError,
    NotAUnitError,
    TooLargeError,
    bouquet,
    cycle_weight_profile,
    derive,
    directed_cycle,
    kirchhoff_count,
    predicted_component_count,
    stabilization_level,
    subgraph,
    tower_component,
)
from voltage_tower.arith import require_prime
from voltage_tower.documents import read_graph, write_graph
from voltage_tower.graph import components
from voltage_tower.tower import (
    DERIVED_EDGE_CAP,
    DERIVED_VERTEX_CAP,
    check_derived_size,
)

from oracles import component_count, relabel_by_unit, sheet_by_sheet_derive
from strategies import connected_multigraphs, looped_multigraphs

PRIMES = (2, 3, 5)


def test_voltage_validates_prime():
    with pytest.raises(InvalidPrimeError):
        ConstantVoltage(4)
    assert ConstantVoltage(2, 3).is_unit
    assert not ConstantVoltage(3, 6).is_unit


@pytest.mark.parametrize("param", ["1", True, 2.5])
def test_voltage_parameter_is_an_int(param):
    with pytest.raises(ValueError, match="voltage parameter must be an int"):
        ConstantVoltage(3, param)


@pytest.mark.parametrize("level", [1.0, True])
def test_derive_level_is_an_int(level):
    with pytest.raises(ValueError, match="level must be an int"):
        derive(directed_cycle(3), ConstantVoltage(3), level)


def test_derive_level_zero_is_identity():
    g = directed_cycle(3)
    d = derive(g, ConstantVoltage(5), 0)
    assert d.graph is g
    assert d.level == 0
    assert d.modulus == 1


def test_derive_loop_bouquet_gives_directed_cycle():
    d = derive(bouquet(1), ConstantVoltage(2), 2)
    assert d.graph.vertex_count == 4
    assert sorted(d.graph.edges) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert d.graph.vertex_labels == ("v0@0", "v0@1", "v0@2", "v0@3")


def test_derive_three_cycle_splits_into_copies():
    g = directed_cycle(3)
    d1 = derive(g, ConstantVoltage(3), 1)
    assert d1.graph.vertex_count == 9
    assert component_count(d1.graph) == 3
    d2 = derive(g, ConstantVoltage(3), 2)
    assert component_count(d2.graph) == 3
    for comp in components(d2.graph):
        assert len(comp) == 9


def _special_params(p, n):
    """0 and p^n (no wrap), p^n + 1, -1, p - 1 and one above p^n."""
    modulus = p**n
    return (0, modulus, modulus + 1, -1, p - 1, 3 * modulus + 2)


@settings(max_examples=100, deadline=None)
@given(
    base=looped_multigraphs(),
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(min_value=0, max_value=4),
    param=st.integers(min_value=-(10**6), max_value=10**6),
)
@example(base=DirectedMultigraph(0, ()), p=3, n=2, param=1)
def test_derive_keeps_the_sheet_by_sheet_edges_and_labels(base, p, n, param):
    for a in (*_special_params(p, n), param):
        d = derive(base, ConstantVoltage(p, a), n)
        expected = sheet_by_sheet_derive(base, p, a, n)
        assert d.graph.name == expected.graph.name
        assert d.graph.vertex_count == expected.graph.vertex_count
        assert d.graph.edges == expected.graph.edges
        assert d.graph.vertex_labels == expected.graph.vertex_labels
        assert d.base_vertex_count == expected.base_vertex_count
        assert d.level == expected.level


def test_vertex_and_edge_counts(corpus):
    for g in corpus:
        for p in (2, 3):
            d = derive(g, ConstantVoltage(p), 2)
            assert d.graph.vertex_count == p**2 * g.vertex_count
            assert len(d.graph.edges) == p**2 * len(g.edges)


def test_projection_is_a_morphism_onto_the_base(corpus):
    for g in corpus[:10]:
        d = derive(g, ConstantVoltage(3), 2)
        nv = d.base_vertex_count
        projected = sorted((s % nv, t % nv) for s, t in d.graph.edges)
        assert projected == sorted(list(g.edges) * d.modulus)


def test_predicted_component_count_examples():
    tri = cycle_weight_profile(directed_cycle(3))
    assert predicted_component_count(tri, 3, 2) == 3
    loop = cycle_weight_profile(bouquet(1))
    for p in PRIMES:
        for n in range(4):
            assert predicted_component_count(loop, p, n) == 1
    digon = cycle_weight_profile(DirectedMultigraph(2, ((0, 1), (1, 0))))
    assert predicted_component_count(digon, 2, 3) == 2
    d = derive(DirectedMultigraph(2, ((0, 1), (1, 0))), ConstantVoltage(2), 3)
    assert component_count(d.graph) == 2


def test_tower_formulas_check_p_and_the_level():
    tri = cycle_weight_profile(directed_cycle(3))
    for n in (-1, 2.0, True):
        with pytest.raises(ValueError):
            predicted_component_count(tri, 2, n)
    tree = cycle_weight_profile(DirectedMultigraph(2, ((0, 1),)))
    for profile in (tri, tree):
        for p in (4, 1, 2.0, True):
            with pytest.raises(InvalidPrimeError):
                predicted_component_count(profile, p, 1)
            with pytest.raises(InvalidPrimeError):
                stabilization_level(profile, p)
    assert predicted_component_count(tri, 3, 0) == 1
    assert predicted_component_count(tree, 2, 3) == 8


def test_all_components_alike(corpus):
    for g in corpus:
        for p in (2, 3):
            d = derive(g, ConstantVoltage(p), 2)
            comps = components(d.graph)
            stats = {
                (
                    len(c),
                    len(subgraph(d.graph, c).edges),
                    kirchhoff_count(subgraph(d.graph, c)),
                )
                for c in comps
            }
            assert len(stats) == 1


def test_stabilization_level():
    tri = cycle_weight_profile(directed_cycle(3))
    assert stabilization_level(tri, 3) == 1
    assert stabilization_level(tri, 2) == 0
    tree = cycle_weight_profile(DirectedMultigraph(2, ((0, 1),)))
    assert stabilization_level(tree, 2) is None
    zero_gcd = cycle_weight_profile(DirectedMultigraph(2, ((0, 1), (0, 1))))
    assert zero_gcd.weight_gcd == 0
    assert stabilization_level(zero_gcd, 5) is None


def test_connected_at_every_level_iff_n0_zero(corpus):
    for g in corpus:
        profile = cycle_weight_profile(g)
        for p in PRIMES:
            n0 = stabilization_level(profile, p)
            if n0 is None:
                continue
            all_connected = all(
                len(components(derive(g, ConstantVoltage(p), n).graph)) == 1
                for n in range(4)
            )
            assert all_connected == (n0 == 0)


def _is_directed_cycle(g) -> bool:
    from voltage_tower import degree_profile

    prof = degree_profile(g)
    return (
        len(components(g)) == 1
        and prof.in_deg == tuple([1] * g.vertex_count)
        and prof.out_deg == tuple([1] * g.vertex_count)
    )


def test_tower_component_examples():
    comp = tower_component(directed_cycle(3), ConstantVoltage(3), 2)
    assert comp.vertex_count == 9
    assert _is_directed_cycle(comp)
    assert kirchhoff_count(comp) == 9
    comp = tower_component(bouquet(1), ConstantVoltage(2), 3)
    assert comp.vertex_count == 8
    assert _is_directed_cycle(comp)
    assert kirchhoff_count(comp) == 8


def test_tower_component_requires_tower_and_unit():
    with pytest.raises(NoTowerError) as exc:
        tower_component(DirectedMultigraph(2, ((0, 1),)), ConstantVoltage(2), 1)
    assert exc.value.reason == "acyclic"
    with pytest.raises(NoTowerError) as exc:
        tower_component(
            DirectedMultigraph(2, ((0, 1), (0, 1))), ConstantVoltage(2), 1
        )
    assert exc.value.reason == "zero-weight-gcd"
    with pytest.raises(NotAUnitError):
        tower_component(directed_cycle(3), ConstantVoltage(3, 6), 1)


def test_derived_size_cap():
    half = DERIVED_VERTEX_CAP // 2
    check_derived_size(DERIVED_VERTEX_CAP, 2, 0)
    check_derived_size(half, 2, 1)
    check_derived_size(0, 2, 10**9)  # an empty base stays empty
    with pytest.raises(TooLargeError):
        check_derived_size(half + 1, 2, 1)
    with pytest.raises(TooLargeError):
        check_derived_size(3, 2, 10**18)  # refused without computing 2^n
    with pytest.raises(TooLargeError):
        derive(directed_cycle(3), ConstantVoltage(2), 40)


def test_require_prime_states_a_huge_p_by_its_bit_length():
    # 10^5000 has more digits than str() will print
    with pytest.raises(TooLargeError, match="^p = <16610-bit int> exceeds"):
        require_prime(10**5000)


def test_derive_states_a_huge_level_by_its_bit_length():
    with pytest.raises(
        TooLargeError, match=r"^3 \* 2\^<16610-bit int> derived vertices"
    ):
        derive(directed_cycle(3), ConstantVoltage(2), 10**5000)


def test_derive_names_an_empty_graph_at_a_huge_level_by_its_bit_length():
    d = derive(DirectedMultigraph(0, ()), ConstantVoltage(2), 10**5000)
    assert d.graph == DirectedMultigraph(
        0, (), (), "derive(graph,p=2,n=<16610-bit int>)"
    )
    assert (d.base_vertex_count, d.level) == (0, 10**5000)
    d = derive(DirectedMultigraph(0, ()), ConstantVoltage(3), 7)
    assert d.graph.name == "derive(graph,p=3,n=7)"


def test_derived_edge_cap():
    # the largest benchmark derive, 3 loops at p = 7, level 5: 50,421 edges
    assert len(derive(bouquet(3), ConstantVoltage(7), 5).graph.edges) == 50_421
    # 1,000 loops at level 9: 512 vertices, 512,000 edges
    assert 1000 * 2**9 > DERIVED_EDGE_CAP
    with pytest.raises(TooLargeError, match="derived edges"):
        derive(bouquet(1000), ConstantVoltage(2), 9)


def test_non_unit_parameter_splits_level_one(corpus):
    for g in corpus:
        if cycle_weight_profile(g).is_acyclic:
            continue
        for p in (2, 3):
            d = derive(g, ConstantVoltage(p, p), 1)
            assert component_count(d.graph) >= p


def test_relabel_identity_and_unit_check():
    d = derive(directed_cycle(3), ConstantVoltage(3), 2)
    same = relabel_by_unit(d, 1)
    assert same.graph.edges == d.graph.edges
    with pytest.raises(NotAUnitError):
        relabel_by_unit(d, 3)


def test_relabel_bouquet_example():
    d1 = derive(bouquet(1), ConstantVoltage(3), 1)
    relabeled = relabel_by_unit(d1, 2)
    assert sorted(relabeled.graph.edges) == sorted(
        derive(bouquet(1), ConstantVoltage(3, 2), 1).graph.edges
    )


@settings(max_examples=40, deadline=None)
@given(
    g=connected_multigraphs(),
    level=st.sampled_from(
        [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
    ),
    data=st.data(),
)
def test_relabel_by_unit_is_an_isomorphism_of_coverings(
    g, level, data, tmp_path_factory
):
    p, n = level
    modulus = p**n
    u = data.draw(
        st.integers(min_value=1, max_value=modulus - 1).filter(
            lambda x: x % p != 0
        )
    )
    d = derive(g, ConstantVoltage(p), n)
    renamed = relabel_by_unit(d, u).graph

    def sizes(graph):
        return sorted(len(c) for c in components(graph))

    def kappa_at_vertex_0(graph):
        return kirchhoff_count(
            subgraph(graph, next(c for c in components(graph) if c[0] == 0))
        )

    assert sizes(renamed) == sizes(d.graph)
    assert kappa_at_vertex_0(renamed) == kappa_at_vertex_0(d.graph)
    path = tmp_path_factory.mktemp("relabel") / "g.json"
    write_graph(renamed, str(path))
    assert read_graph(str(path)) == renamed


def test_parameter_independence(corpus):
    for g in corpus:
        for p, n in ((2, 2), (3, 2)):
            reference = derive(g, ConstantVoltage(p), n)
            for a in range(1, p**n):
                if a % p == 0:
                    continue
                direct = derive(g, ConstantVoltage(p, a), n)
                renamed = relabel_by_unit(reference, a)
                assert sorted(direct.graph.edges) == sorted(
                    renamed.graph.edges
                )
