"""Output checks, run off the clock after every job.

Each check reads the documents a job wrote and returns ``None`` when they
are right, or a one-line reason.  Values are compared, never document
bytes, so fields the library adds later (a provenance block) do not break
a check.
"""

from __future__ import annotations

import json
from typing import Optional

from voltage_tower.arith import valuation
from voltage_tower.graph import (
    adjacency_matrix,
    cycle_weight_profile,
    degree_profile,
)
from voltage_tower.linalg import IntMatrix, determinant, kirchhoff_count
from voltage_tower.tower import (
    ConstantVoltage,
    predicted_component_count,
    tower_component,
)

from corpus import Job

# Tower components up to this size get their kappa recomputed.
RECOUNT_VERTICES = 64


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_climb(job: Job) -> Optional[str]:
    doc = _load(job.outputs[0])
    levels = doc["levels"]
    ns = [lvl["n"] for lvl in levels]
    if ns[-1] != job.level:
        return f"levels {ns} do not end at n_max={job.level}"
    profile = cycle_weight_profile(job.graph)
    for lvl in levels:
        n = lvl["n"]
        kappa = int(lvl["kappa_per_component"])
        expected = predicted_component_count(profile, job.p, n)
        if lvl["component_count"] != expected:
            return f"level {n}: {lvl['component_count']} components, formula {expected}"
        if lvl["ord_p"] != valuation(kappa, job.p):
            return f"level {n}: ord_p {lvl['ord_p']} is not v_p(kappa)"
        if job.graph.vertex_count * job.p**n // expected <= RECOUNT_VERTICES:
            comp = tower_component(job.graph, ConstantVoltage(job.p), n)
            if comp.vertex_count > 1 and kirchhoff_count(comp, row=1, col=1) != kappa:
                return f"level {n}: kappa {kappa} differs from the (1,1) cofactor"
    pinned = job.pinned
    if pinned is not None:
        got = (doc["mu"], doc["lambda"], doc["n0"], doc["fitted_nu"])
        want = (pinned.mu, pinned.lam, pinned.n0, pinned.nu)
        if got != want:
            return f"(mu, lambda, n0, nu) = {got}, recorded {want}"
        kappas = tuple(int(lvl["kappa_per_component"]) for lvl in levels)
        if kappas != pinned.kappas:
            return f"kappas {kappas}, recorded {pinned.kappas}"
    return None


def check_charpoly(job: Job) -> Optional[str]:
    """P(x) at x = r + 1, outside the 2r + 1 default interpolation points
    0, +-1, ..., +-r, against the determinant of the cleared matrix
    D(1+T) - A(1+T)^2 - A^t evaluated there."""
    doc = _load(job.outputs[0])
    coeffs = [int(c) for c in doc["charpoly"]]
    g = job.graph
    x = g.vertex_count + 1
    u = 1 + x
    adj = adjacency_matrix(g)
    prof = degree_profile(g)
    rows = [
        [
            (prof.in_deg[i] + prof.out_deg[i]) * u * (i == j)
            - adj[i][j] * u * u
            - adj[j][i]
            for j in range(g.vertex_count)
        ]
        for i in range(g.vertex_count)
    ]
    value = sum(c * x**k for k, c in enumerate(coeffs))
    if value != determinant(IntMatrix.from_rows(rows)):
        return f"P({x}) differs from the determinant of the cleared matrix"
    return None


def check_derive_io(job: Job) -> Optional[str]:
    sheets = job.p**job.level
    doc = _load(job.outputs[0])
    vertices = job.graph.vertex_count * sheets
    edges = job.graph.edge_count * sheets
    if doc["vertex_count"] != vertices or len(doc["edges"]) != edges:
        return (
            f"derived graph has {doc['vertex_count']} vertices and "
            f"{len(doc['edges'])} edges, expected {vertices} and {edges}"
        )
    with open(job.outputs[1], encoding="utf-8") as fh:
        dot_lines = sum(1 for _ in fh)
    if dot_lines != vertices + edges + 2:
        return f"DOT export has {dot_lines} lines, expected {vertices + edges + 2}"
    return None


CHECKS = {
    "climb": check_climb,
    "charpoly": check_charpoly,
    "derive-io": check_derive_io,
}
