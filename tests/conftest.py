import random

import pytest

from voltage_tower import (
    ConstantVoltage,
    CraterSpec,
    DirectedMultigraph,
    VolcanoSpec,
    bouquet,
    components,
    cycle_weight_profile,
    derive,
    directed_cycle,
    doubled,
    invariants,
    kirchhoff_count,
    stabilization_level,
    tower_component,
    verify_growth,
    volcano,
)
from voltage_tower.arith import valuation

from oracles import component_count, fit_growth_parameters

CROSS_VALIDATION_PRIMES = (2, 3, 5)


def path_graph(k: int) -> DirectedMultigraph:
    return DirectedMultigraph(
        k, tuple((i, i + 1) for i in range(k - 1)), name=f"path({k})"
    )


def _random_multigraphs(count: int, seed: int = 20240) -> list[DirectedMultigraph]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 6)
        m = rng.randint(n, 10)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(m)
        )
        g = DirectedMultigraph(n, edges, name=f"random({len(out)})")
        if len(components(g)) == 1:
            out.append(g)
    return out


def build_corpus() -> list[DirectedMultigraph]:
    """Connected graphs with at most 16 edges: cycles, bouquets, small
    volcanoes, doubled paths and cycles, assorted multigraphs."""
    graphs = [directed_cycle(k) for k in range(1, 7)]
    graphs += [bouquet(k) for k in (1, 2, 3)]
    graphs += [
        volcano(VolcanoSpec(2, 1, CraterSpec.cycle(3))),
        volcano(VolcanoSpec(2, 1, CraterSpec.cycle(1))),
        volcano(VolcanoSpec(2, 1, CraterSpec.two_loops())),
        volcano(VolcanoSpec(3, 1, CraterSpec.cycle(2))),
        volcano(VolcanoSpec(2, 2, CraterSpec.cycle(1))),
        volcano(VolcanoSpec(2, 2, CraterSpec.cycle(4))),
    ]
    graphs += [doubled(path_graph(k)) for k in (2, 3, 4)]
    graphs += [doubled(directed_cycle(k)) for k in (3, 4, 5)]
    graphs += [doubled(volcano(VolcanoSpec(2, 1, CraterSpec.cycle(3))))]
    graphs += [
        DirectedMultigraph(2, ((0, 1), (1, 0)), name="digon"),
        DirectedMultigraph(2, ((0, 1), (0, 1)), name="parallel-pair"),
        DirectedMultigraph(2, ((0, 1), (0, 1), (1, 0)), name="triple-link"),
        DirectedMultigraph(
            3, ((0, 1), (1, 2), (2, 0), (0, 2)), name="triangle-chord"
        ),
        DirectedMultigraph(1, (), name="point"),
    ]
    graphs += _random_multigraphs(9)
    assert all(len(g.edges) <= 16 for g in graphs)
    assert all(len(components(g)) == 1 for g in graphs)
    assert len(graphs) >= 30
    return graphs


@pytest.fixture(scope="session")
def corpus() -> list[DirectedMultigraph]:
    return build_corpus()


def fit_matches_weierstrass(g, p, budget_vertices=1600):
    """Climb the tower until the top-three-level fit reproduces the
    Weierstrass pair; the growth law is asymptotic, so low levels may
    precede the exact regime.

    Each level's kappa comes from the Laplacian of the tower component, not
    from ``verify_growth``, whose resultant kappa is built from P(T) itself
    and so could not check P(T)'s Weierstrass data.  At every n_max climbed,
    ``verify_growth`` must report the same levels."""
    profile = cycle_weight_profile(g)
    n0 = stabilization_level(profile, p)
    assert n0 is not None
    inv = invariants(g, p)
    voltage = ConstantVoltage(p)
    levels = []
    for n in range(n0, n0 + 8):
        if g.vertex_count * p**n > budget_vertices:
            return False
        kappa = kirchhoff_count(tower_component(g, voltage, n))
        count = component_count(derive(g, voltage, n))
        levels.append((n, count, kappa, valuation(kappa, p)))
        if n < n0 + 2:
            continue
        report = verify_growth(g, p, n)
        assert [
            (lvl.n, lvl.component_count, lvl.kappa_per_component, lvl.ord_p)
            for lvl in report.levels
        ] == levels, (g.name, p, n)
        points = [(level - n0, ord_p) for level, _, _, ord_p in levels]
        fitted = fit_growth_parameters(points, p)
        if fitted is not None and fitted[:2] == (inv.mu, inv.lam):
            return True
    return False


@pytest.fixture(scope="session")
def tower_fit_matches(corpus) -> dict[tuple[DirectedMultigraph, int], bool]:
    """fit_matches_weierstrass for every (graph, p) of the corpus that has
    a tower, climbed once per session and shared by the tests that check
    it."""
    results = {}
    for g in corpus:
        for p in CROSS_VALIDATION_PRIMES:
            if stabilization_level(cycle_weight_profile(g), p) is None:
                continue
            budget = 800 if p == 5 else 1600
            results[(g, p)] = fit_matches_weierstrass(g, p, budget)
    return results
