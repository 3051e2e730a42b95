"""Acceptance suite: the nine exit criteria, exact integer equality
throughout (no tolerances anywhere).  Run with ``pytest -v -s`` to see one
pass line per criterion."""

from voltage_tower import (
    ConstantVoltage,
    CraterSpec,
    IntMatrix,
    VolcanoSpec,
    bouquet,
    brute_force_spanning_trees,
    char_poly,
    check_theorem_hypotheses,
    cycle_weight_profile,
    degree_profile,
    derive,
    directed_cycle,
    doubled,
    invariants,
    kirchhoff_count,
    predicted_component_count,
    recognize_augmented_volcano,
    recognize_volcano,
    stabilization_level,
    subgraph,
    total_degree,
    tower_component,
    verify_growth,
    volcano,
    volcano_total_degree,
)
from voltage_tower.graph import components
from voltage_tower.linalg import _cleared_matrix

from oracles import (
    component_count,
    fit_growth_parameters,
    relabel_by_unit,
    smith_normal_form,
)

PRIMES = (2, 3, 5)


def _passed(n: int, message: str) -> None:
    print(f"criterion {n}: PASS - {message}")


def test_criterion_1_volcano_invariants_and_growth():
    v = volcano(VolcanoSpec(2, 2, CraterSpec.cycle(4)))
    inv = invariants(v, 3)
    assert (inv.mu, inv.lam, inv.n0) == (0, 1, 0)
    report = verify_growth(v, 3, 3)
    kappas = [lvl.kappa_per_component for lvl in report.levels]
    assert kappas == [4, 12, 36, 108]
    assert kappas == [3**n * 4 for n in range(4)]
    assert report.fitted_nu == 0
    assert report.exact_from_level == 0
    _passed(1, "volcano(2,2,cycle:4) at p=3: mu=0 lambda=1 n0=0, kappa=(4,12,36,108), nu=0, exact from 0")


def test_criterion_2_two_loop_bouquet_both_primes():
    g = bouquet(2)
    inv = invariants(g, 2)
    assert (inv.mu, inv.lam) == (1, 1)
    report = verify_growth(g, 2, 3)
    kappas = [lvl.kappa_per_component for lvl in report.levels]
    assert kappas == [2 ** (2**n - 1) * 2**n for n in range(4)]
    ords = [lvl.ord_p for lvl in report.levels]
    assert ords == [2**n - 1 + n for n in range(4)]
    assert report.fitted_nu == -1
    assert report.exact_from_level == 0
    assert fit_growth_parameters(list(enumerate(ords)), 2) == (1, 1, -1)

    inv3 = invariants(g, 3)
    assert (inv3.mu, inv3.lam) == (0, 1)
    report3 = verify_growth(g, 3, 2)
    assert [lvl.ord_p for lvl in report3.levels] == [0, 1, 2]
    assert [lvl.kappa_per_component for lvl in report3.levels] == [
        2 ** (3**n - 1) * 3**n for n in range(3)
    ]
    _passed(2, "bouquet(2): p=2 gives mu=1 lambda=1 with ord=2^n-1+n, p=3 gives mu=0 lambda=1 with ord=n")


def test_criterion_3_directed_three_cycle():
    g = directed_cycle(3)
    assert char_poly(g) == (0, 0, -9, -18, -15, -6, -1)
    inv = invariants(g, 3)
    assert inv.n0 == 1
    assert (inv.mu, inv.lam) == (0, 1)
    counts = [
        component_count(derive(g, ConstantVoltage(3), n))
        for n in range(4)
    ]
    assert counts == [1, 3, 3, 3]
    for n in range(1, 4):
        comp = tower_component(g, ConstantVoltage(3), n)
        assert kirchhoff_count(comp) == 3**n
    _passed(3, "3-cycle at p=3: charpoly exact, n0=1, components (1,3,3,3), mu=0 lambda=1, kappa=3^n")


def test_criterion_4_oracle_equivalence(corpus):
    assert len(corpus) >= 30
    for g in corpus:
        assert len(g.edges) <= 16
        kappa = kirchhoff_count(g)
        assert kappa == brute_force_spanning_trees(g), g.name
        lap = _cleared_matrix(g, 1)
        reduced = [row[1:] for row in lap[1:]]
        matrix = IntMatrix.from_rows(reduced) if reduced else IntMatrix(0, 0, ())
        product = 1
        for factor in smith_normal_form(matrix):
            product *= factor
        assert product == kappa, g.name
    _passed(4, f"kirchhoff == brute force == SNF product on {len(corpus)} graphs")


def test_criterion_5_component_count_formula(corpus):
    checked = 0
    for g in corpus:
        profile = cycle_weight_profile(g)
        base_kappa = kirchhoff_count(g)
        for p in PRIMES:
            for n in range(4):
                d = derive(g, ConstantVoltage(p), n)
                assert component_count(d) == (
                    predicted_component_count(profile, p, n)
                ), (g.name, p, n)
                checked += 1
            n0 = stabilization_level(profile, p)
            if n0 is None:
                continue
            for n in range(min(n0, 3) + 1):
                d = derive(g, ConstantVoltage(p), n)
                for comp in components(d):
                    sub = subgraph(d, comp)
                    assert sub.vertex_count == g.vertex_count
                    assert len(sub.edges) == len(g.edges)
                    assert kirchhoff_count(sub) == base_kappa
    _passed(5, f"BFS component counts match p^min(n, v_p(gcd)) in {checked} cases; low levels are disjoint base copies")


def test_criterion_6_theorem_suites(corpus):
    extras = [
        doubled(volcano(VolcanoSpec(2, 0, CraterSpec.cycle(3)))),
        doubled(volcano(VolcanoSpec(2, 1, CraterSpec.cycle(3)))),
        doubled(volcano(VolcanoSpec(2, 2, CraterSpec.cycle(3)))),
    ]
    hits = {"mu_positive": 0, "mu_zero": 0, "balanced": 0}
    for g in list(corpus) + extras:
        for p in PRIMES:
            if stabilization_level(cycle_weight_profile(g), p) is None:
                continue
            hyp = check_theorem_hypotheses(g, p)
            if not (hyp.mu_positive_hyp or hyp.mu_zero_hyp or hyp.balanced_hyp):
                continue
            inv = invariants(g, p)
            if hyp.mu_positive_hyp:
                hits["mu_positive"] += 1
                assert inv.mu > 0, (g.name, p)
            if hyp.mu_zero_hyp:
                hits["mu_zero"] += 1
                assert inv.mu == 0, (g.name, p)
            if hyp.balanced_hyp:
                hits["balanced"] += 1
                assert (inv.mu, inv.lam) == (0, 1), (g.name, p)
                k = len(g.edges)
                kappa = kirchhoff_count(g)
                assert inv.charpoly[0] == 0
                assert inv.charpoly[1] == 0
                assert inv.charpoly[2] == -k * kappa, (g.name, p)
    # the doubled cycle-crater volcanoes must land in the balanced suite
    # at p=5 (p coprime to 2kl)
    for g in extras:
        assert degree_profile(g).in_deg == degree_profile(g).out_deg
        assert check_theorem_hypotheses(g, 5).balanced_hyp
    assert all(count > 0 for count in hits.values())
    _passed(6, f"theorem hypotheses confirmed: {hits}")


def test_criterion_7_parameter_independence():
    targets = [
        directed_cycle(3),
        volcano(VolcanoSpec(2, 1, CraterSpec.cycle(3))),
    ]
    for g in targets:
        reference = derive(g, ConstantVoltage(3), 2)
        for a in (1, 2, 4):
            direct = derive(g, ConstantVoltage(3, a), 2)
            renamed = relabel_by_unit(reference, g.vertex_count, 3**2, a)
            assert sorted(direct.edges) == sorted(renamed.edges), (
                g.name,
                a,
            )
    _passed(7, "derive(g,3,2,a) == relabel_by_unit(derive(g,3,2,1),a) for a in {1,2,4}")


def test_criterion_8_structure_propagation():
    # cycle craters: towers keep the depth, the crater stretches to p^n a
    for spec, p in (
        (VolcanoSpec(2, 2, CraterSpec.cycle(4)), 3),
        (VolcanoSpec(2, 1, CraterSpec.cycle(3)), 2),
        (VolcanoSpec(3, 1, CraterSpec.cycle(2)), 3),
    ):
        base = volcano(spec)
        for n in range(3):
            comp = tower_component(base, ConstantVoltage(p), n)
            shape = recognize_volcano(comp)
            assert shape is not None
            assert shape.depth == spec.depth
            assert shape.crater_kind == "cycle"
            assert shape.crater_length == p**n * spec.crater.length
    # two-loop craters: derived graphs are augmented volcanoes over a
    # double crater of length p^n
    for l, d, p in ((2, 0, 2), (2, 1, 2), (2, 1, 3), (3, 2, 2)):
        base = volcano(VolcanoSpec(l, d, CraterSpec.two_loops()))
        for n in (1, 2):
            g = derive(base, ConstantVoltage(p), n)
            shape = recognize_augmented_volcano(g)
            assert shape is not None, (l, d, p, n)
            assert shape.depth == d
            assert shape.crater_length == p**n
    # closed-form total degrees across the full grid
    craters = [
        CraterSpec.cycle(1),
        CraterSpec.cycle(2),
        CraterSpec.cycle(3),
        CraterSpec.cycle(4),
        CraterSpec.two_loops(),
        CraterSpec.bare(),
    ]
    for l in (2, 3, 5):
        for d in range(4):
            for crater in craters:
                spec = VolcanoSpec(l, d, crater)
                assert total_degree(volcano(spec)) == volcano_total_degree(
                    spec
                ), (l, d, crater.token)
    _passed(8, "volcano structure propagates through towers; total-degree formulas hold on the full grid")


def test_criterion_9_cross_validation(tower_fit_matches):
    for (g, p), matched in tower_fit_matches.items():
        assert matched, (g.name, p, invariants(g, p))
    checked = len(tower_fit_matches)
    _passed(9, f"Weierstrass (mu, lambda) equals the tower-data fit for {checked} graph/prime pairs")
