import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from voltage_tower import (
    AugmentedVolcanoShape,
    ConstantVoltage,
    CraterSpec,
    DirectedMultigraph,
    InvalidSpecError,
    NoTowerError,
    NotConnectedError,
    TooLargeError,
    VolcanoShape,
    VolcanoSpec,
    VoltageTowerError,
    bouquet,
    check_theorem_hypotheses,
    cycle_weight_profile,
    degree_profile,
    derive,
    directed_cycle,
    doubled,
    invariants,
    is_augmented_volcano,
    is_double_crater,
    kirchhoff_count,
    recognize_augmented_volcano,
    recognize_volcano,
    stabilization_level,
    total_degree,
    tower_component,
    volcano,
    volcano_total_degree,
)
from voltage_tower.tower import DERIVED_EDGE_CAP, DERIVED_VERTEX_CAP

ALL_CRATERS = [
    CraterSpec.cycle(1),
    CraterSpec.cycle(2),
    CraterSpec.cycle(3),
    CraterSpec.cycle(4),
    CraterSpec.two_loops(),
    CraterSpec.bare(),
]


def test_basic_constructors():
    assert directed_cycle(3).edges == ((0, 1), (1, 2), (2, 0))
    assert bouquet(2).edges == ((0, 0), (0, 0))
    assert doubled(DirectedMultigraph(2, ((0, 1),))).edges == ((0, 1), (1, 0))
    loops = doubled(bouquet(1))
    assert loops.edges == ((0, 0),)


def test_crater_spec_validation():
    with pytest.raises(InvalidSpecError):
        CraterSpec.cycle(0)
    with pytest.raises(InvalidSpecError):
        CraterSpec("pyramid")
    with pytest.raises(InvalidSpecError):
        VolcanoSpec(1, 1, CraterSpec.cycle(3))
    with pytest.raises(InvalidSpecError):
        VolcanoSpec(2, -1, CraterSpec.cycle(3))
    assert CraterSpec.one_loop() == CraterSpec.cycle(1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: directed_cycle(2.0),
        lambda: directed_cycle(True),
        lambda: directed_cycle(0),
        lambda: bouquet(2.5),
        lambda: bouquet(-1),
        lambda: CraterSpec("cycle", 2.5),
        lambda: CraterSpec.cycle(True),
        lambda: CraterSpec("bare", 0),
        lambda: VolcanoSpec(2.0, 1, CraterSpec.cycle(3)),
        lambda: VolcanoSpec(True, 1, CraterSpec.cycle(3)),
        lambda: VolcanoSpec(2, True, CraterSpec.cycle(3)),
        lambda: VolcanoSpec(2, 1.0, CraterSpec.cycle(3)),
        lambda: VolcanoSpec(2, "1", CraterSpec.cycle(3)),
    ],
)
def test_generator_arguments_are_ints_in_range(build):
    with pytest.raises(InvalidSpecError):
        build()


def test_crater_tokens_round_trip():
    for crater in ALL_CRATERS:
        assert CraterSpec.from_token(crater.token) == crater
    assert CraterSpec.one_loop().token == "cycle:1"
    assert CraterSpec.from_token("one-loop") == CraterSpec.one_loop()
    for token in (
        "pyramid",
        "cycle:",
        "cycle:x",
        "cycle:0",
        "one-loop:1",
        # int() reads these as K, but token never prints them
        "cycle:+3",
        "cycle: 3",
        "cycle:1_0",
        "cycle:\u0663",  # ARABIC-INDIC DIGIT THREE
        "cycle:03",
        "cycle:" + "9" * 5000,
    ):
        with pytest.raises(InvalidSpecError):
            CraterSpec.from_token(token)


def test_generators_stop_at_the_caps_before_building():
    cap = DERIVED_VERTEX_CAP
    assert directed_cycle(cap).vertex_count == cap
    # a bare crater with l + 1 children: 1 + (l + 1) vertices
    assert volcano(VolcanoSpec(cap - 2, 1, CraterSpec.bare())).vertex_count == cap
    for build in (
        lambda: directed_cycle(cap + 1),
        lambda: bouquet(DERIVED_EDGE_CAP + 1),
        lambda: volcano(VolcanoSpec(cap - 1, 1, CraterSpec.bare())),
        lambda: volcano(VolcanoSpec(2, 0, CraterSpec.cycle(cap + 1))),
        lambda: volcano(VolcanoSpec(2, 10**18, CraterSpec.cycle(3))),
        lambda: volcano(VolcanoSpec(10**18, 1, CraterSpec.two_loops())),
    ):
        with pytest.raises(TooLargeError):
            build()


def test_volcano_vertex_counts():
    v = volcano(VolcanoSpec(2, 2, CraterSpec.cycle(4)))
    assert v.vertex_count == 16
    assert len(v.edges) == 16
    prof = degree_profile(v)
    # crater 4, level one 4, level two 8
    assert v.name == "volcano(l=2,d=2,crater=cycle:4)"
    assert sum(prof.loop_count) == 0

    v = volcano(VolcanoSpec(3, 0, CraterSpec.two_loops()))
    assert v.vertex_count == 1
    assert v.edges == ((0, 0), (0, 0))


def test_total_degree_formulas():
    v = volcano(VolcanoSpec(2, 1, CraterSpec.cycle(1)))
    assert total_degree(v) == 5  # (2*l^(d+1) - l - 1) / (l - 1)
    for l in (2, 3, 5):
        for d in range(4):
            for crater in ALL_CRATERS:
                spec = VolcanoSpec(l, d, crater)
                v = volcano(spec)
                assert total_degree(v) == volcano_total_degree(spec), (
                    l,
                    d,
                    crater.token,
                )


def test_volcano_round_trip():
    for l in (2, 3, 5):
        for d in range(4):
            for crater in ALL_CRATERS:
                v = volcano(VolcanoSpec(l, d, crater))
                shape = recognize_volcano(v)
                assert shape is not None, (l, d, crater.token)
                assert shape.depth == d
                assert shape.crater_kind == crater.kind
                assert shape.crater_length == crater.vertex_count
                if d >= 1:
                    assert shape.l == l
                else:
                    assert shape.l is None


def test_recognize_volcano_rejects_non_volcanoes():
    path4 = DirectedMultigraph(4, ((0, 1), (1, 2), (2, 3)))
    assert recognize_volcano(path4) is None
    pendant = DirectedMultigraph(4, ((0, 1), (1, 2), (2, 0), (0, 3)))
    assert recognize_volcano(pendant) is None
    with pytest.raises(NotConnectedError):
        recognize_volcano(DirectedMultigraph(2, ()))


def test_recognize_depth_zero_craters():
    assert recognize_volcano(directed_cycle(5)).crater_length == 5
    assert recognize_volcano(bouquet(2)).crater_kind == "two-loops"
    assert recognize_volcano(bouquet(1)).crater_length == 1
    assert recognize_volcano(DirectedMultigraph(1, ())).crater_kind == "bare"


def test_double_crater_recognition():
    d1 = derive(bouquet(2), ConstantVoltage(3), 1)
    assert is_double_crater(d1) == 3
    d2 = derive(bouquet(2), ConstantVoltage(2), 1)
    assert is_double_crater(d2) == 2
    assert is_double_crater(bouquet(2)) is None
    assert is_double_crater(directed_cycle(4)) is None
    assert is_double_crater(doubled(directed_cycle(4))) == 4


def test_tower_components_of_cycle_crater_volcanoes():
    # towers keep the depth and stretch the crater to length p^n * a
    cases = [
        (VolcanoSpec(2, 2, CraterSpec.cycle(4)), 3),
        (VolcanoSpec(2, 1, CraterSpec.cycle(3)), 2),
        (VolcanoSpec(3, 1, CraterSpec.cycle(1)), 5),
    ]
    for spec, p in cases:
        base = volcano(spec)
        a = spec.crater.length
        for n in range(0, 3):
            comp = tower_component(base, ConstantVoltage(p), n)
            assert comp.vertex_count == base.vertex_count * p**n
            shape = recognize_volcano(comp)
            assert shape is not None, (spec, p, n)
            assert shape.depth == spec.depth
            assert shape.crater_kind == "cycle"
            assert shape.crater_length == p**n * a
            if spec.depth >= 1:
                # a loop crater (a = 1, counted once in the degree) unrolls
                # into a true cycle, raising each crater degree by one
                expected_l = spec.l if a >= 2 or n == 0 else spec.l + 1
                assert shape.l == expected_l
            assert kirchhoff_count(comp) == p**n * a


def test_derived_two_loop_volcanoes_are_augmented():
    for l, p in ((2, 2), (2, 3), (3, 2)):
        for d in (0, 1, 2):
            base = volcano(VolcanoSpec(l, d, CraterSpec.two_loops()))
            for n in (1, 2):
                g = derive(base, ConstantVoltage(p), n)
                shape = recognize_augmented_volcano(g)
                assert shape is not None, (l, p, d, n)
                assert is_augmented_volcano(g)
                assert shape.depth == d
                assert shape.crater_length == p**n
                if d >= 1:
                    assert shape.l == l
            assert not is_augmented_volcano(base)


def test_two_loop_volcano_kirchhoff():
    # kappa at level n is 2^(p^n - 1) * p^n, all of it from the crater
    for l, d, p in ((2, 1, 2), (2, 2, 2), (3, 1, 3)):
        base = volcano(VolcanoSpec(l, d, CraterSpec.two_loops()))
        for n in range(0, 3):
            comp = tower_component(base, ConstantVoltage(p), n)
            assert kirchhoff_count(comp) == 2 ** (p**n - 1) * p**n


def test_doubled_volcano_balanced_and_minimal():
    # doubling a cycle-crater or two-loop volcano balances it; away from
    # 2kl the tower invariants collapse to mu=0, lambda=1
    cases = [
        (VolcanoSpec(2, 1, CraterSpec.cycle(3)), 5),
        (VolcanoSpec(2, 0, CraterSpec.cycle(3)), 5),
        (VolcanoSpec(2, 1, CraterSpec.two_loops()), 3),
        (VolcanoSpec(3, 1, CraterSpec.cycle(2)), 5),
    ]
    for spec, p in cases:
        g = doubled(volcano(spec))
        assert degree_profile(g).in_deg == degree_profile(g).out_deg
        hyp = check_theorem_hypotheses(g, p)
        assert hyp.balanced_hyp, (spec, p)
        inv = invariants(g, p)
        assert (inv.mu, inv.lam) == (0, 1), (spec, p)


def test_doubled_volcano_spanning_trees():
    # every spanning tree picks one of the k crater edges to drop and one
    # of two parallel copies of each remaining edge
    for spec in (
        VolcanoSpec(2, 0, CraterSpec.cycle(3)),
        VolcanoSpec(2, 1, CraterSpec.cycle(3)),
        VolcanoSpec(2, 0, CraterSpec.cycle(4)),
    ):
        g = doubled(volcano(spec))
        k = spec.crater.length
        expected = k * 2 ** (g.vertex_count - 1)
        assert kirchhoff_count(g) == expected
    for spec in (
        VolcanoSpec(2, 0, CraterSpec.two_loops()),
        VolcanoSpec(2, 1, CraterSpec.two_loops()),
    ):
        g = doubled(volcano(spec))
        assert kirchhoff_count(g) == 2 ** (g.vertex_count - 1)


def test_bare_crater_volcano_is_a_tree():
    v = volcano(VolcanoSpec(2, 2, CraterSpec.bare()))
    assert cycle_weight_profile(v).is_acyclic
    assert stabilization_level(cycle_weight_profile(v), 2) is None


RECOGNIZERS = (
    (recognize_volcano, oracles.split_recognize_volcano),
    (recognize_augmented_volcano, oracles.split_recognize_augmented_volcano),
    (is_double_crater, oracles.split_is_double_crater),
    (is_augmented_volcano, oracles.split_is_augmented_volcano),
)


def _outcome(recognizer, g):
    try:
        return recognizer(g)
    except VoltageTowerError as exc:
        return type(exc)


def assert_recognizers_match_oracle(g):
    """All four recognizers give the split oracle's result or error type;
    returns the oracle's (volcano, augmented volcano) hits."""
    outcomes = []
    for recognizer, oracle in RECOGNIZERS:
        expected = _outcome(oracle, g)
        assert _outcome(recognizer, g) == expected, (recognizer.__name__, g)
        outcomes.append(expected)
    return [
        isinstance(found, (VolcanoShape, AugmentedVolcanoShape))
        for found in outcomes[:2]
    ]


def _volcano_family():
    """Generated, doubled and derived volcanoes and tower components over
    every crater kind."""
    graphs = []
    for l in (2, 3):
        for d in (0, 1, 2):
            for crater in ALL_CRATERS:
                base = volcano(VolcanoSpec(l, d, crater))
                graphs += [base, doubled(base)]
                for p in (2, 3):
                    voltage = ConstantVoltage(p)
                    graphs.append(derive(base, voltage, 1))
                    try:
                        graphs.append(tower_component(base, voltage, 1))
                    except NoTowerError:
                        pass
    return graphs


VOLCANO_FAMILY = _volcano_family()


def _one_edge_changes(g, rng):
    """g with one edge dropped, duplicated or added, or one loop added."""
    n, edges = g.vertex_count, list(g.edges)
    changed = [edges[:i] + edges[i + 1 :] for i in range(len(edges))]
    changed += [edges + [e] for e in edges]
    changed += [edges + [(v, v)] for v in range(n)]
    changed += [
        edges + [(rng.randrange(n), rng.randrange(n))] for _ in range(n)
    ]
    return [DirectedMultigraph(n, tuple(e)) for e in changed]


def _random_multigraph(rng):
    n = rng.randint(1, 9)
    m = rng.randint(0, 14)
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    return DirectedMultigraph(n, edges)


def test_recognizers_match_the_split_oracle_on_a_fixed_corpus():
    rng = random.Random(20261018)
    graphs = list(VOLCANO_FAMILY)
    for g in VOLCANO_FAMILY:
        changes = _one_edge_changes(g, rng)
        graphs += rng.sample(changes, min(12, len(changes)))
    graphs += [_random_multigraph(rng) for _ in range(18000)]
    assert len(graphs) >= 20000
    hits = [assert_recognizers_match_oracle(g) for g in graphs]
    # 822 volcanoes and 39 augmented volcanoes among 20,494 graphs
    assert all(sum(column) >= 30 for column in zip(*hits))


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    return DirectedMultigraph(n, tuple(edges))


@st.composite
def changed_volcanoes(draw):
    g = draw(st.sampled_from(VOLCANO_FAMILY))
    changes = _one_edge_changes(g, draw(st.randoms()))
    return draw(st.sampled_from([g] + changes))


@settings(max_examples=300, deadline=None)
@given(st.one_of(multigraphs(), changed_volcanoes()))
def test_recognizers_match_the_split_oracle(g):
    assert_recognizers_match_oracle(g)


def test_recognizers_reject_malformed_craters_and_layers():
    triangle_one_doubled = DirectedMultigraph(
        3, ((0, 1), (1, 2), (2, 0), (1, 0))
    )
    base = volcano(VolcanoSpec(2, 2, CraterSpec.cycle(3)))
    # the last two edges hang the last two leaves, so dropping them leaves
    # their parent a leaf one level up
    short_branch = DirectedMultigraph(base.vertex_count - 2, base.edges[:-2])
    augmented = derive(
        volcano(VolcanoSpec(2, 1, CraterSpec.two_loops())),
        ConstantVoltage(3),
        1,
    )
    lopsided = DirectedMultigraph(
        augmented.vertex_count + 1,
        augmented.edges + ((0, augmented.vertex_count),),
    )
    for g in (bouquet(3), triangle_one_doubled, short_branch, lopsided):
        assert recognize_volcano(g) is None
        assert recognize_augmented_volcano(g) is None
        assert_recognizers_match_oracle(g)
    assert is_double_crater(triangle_one_doubled) is None
    assert recognize_augmented_volcano(augmented) is not None
