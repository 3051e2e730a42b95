"""Seeded job corpora for the three benchmark workloads.

Each workload is a fixed schedule of shapes (vertex count, edge count,
prime, levels) that does not depend on the seed; the seed draws only the
wiring of every base graph.  Two seeds therefore hand the library different
graphs but the same amount of work, which keeps runs with different seeds
comparable.  The library sees nothing but the graph documents written here
and the command lines built here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from voltage_tower import documents
from voltage_tower.generators import (
    CraterSpec,
    VolcanoSpec,
    bouquet,
    directed_cycle,
    doubled,
    volcano,
)
from voltage_tower.graph import DirectedMultigraph, cycle_weight_profile
from voltage_tower.tower import stabilization_level

# Largest top-level tower component a seeded climb job builds.
CLIMB_TOP_VERTICES = 200
WIRING_ATTEMPTS = 10_000


@dataclass(frozen=True)
class Pinned:
    """Values recorded for a paper case at the seed commit."""

    mu: int
    lam: int
    n0: int
    nu: int
    kappas: tuple[int, ...]


@dataclass(frozen=True)
class Job:
    """One closed-loop job: the ``cli.main`` calls it makes, in order."""

    label: str
    graph: DirectedMultigraph
    p: int
    level: int  # n_max for climb, the derived level for derive-io, else 0
    argvs: tuple[tuple[str, ...], ...]
    outputs: tuple[Path, ...]
    pinned: Optional[Pinned] = None


# README volcano and the other paper cases, with their recorded invariants:
# (name, graph, p, n_max, Pinned).
def _pinned_cases():
    return (
        (
            "volcano(2,2,cycle:4)",
            volcano(VolcanoSpec(2, 2, CraterSpec.cycle(4))),
            3,
            3,
            Pinned(0, 1, 0, 0, (4, 12, 36, 108)),
        ),
        (
            "doubled(volcano(2,1,cycle:3))",
            doubled(volcano(VolcanoSpec(2, 1, CraterSpec.cycle(3)))),
            2,
            5,
            Pinned(
                0,
                11,
                0,
                1,
                (
                    96,
                    12288,
                    18345885696,
                    3038630008272287956992,
                    28214272757103165377548728376391993219088384,
                    int(
                        "1194117985005174627587700628640515341405747963933302776"
                        "368614317571143105162296309055488"
                    ),
                ),
            ),
        ),
        (
            "doubled(cycle(4))",
            doubled(directed_cycle(4)),
            2,
            6,
            Pinned(6, 1, 1, -1, tuple(2**k for k in (5, 12, 25, 50, 99, 196))),
        ),
        (
            "cycle(9)",
            directed_cycle(9),
            3,
            4,
            Pinned(0, 1, 2, 2, (9, 27, 81)),
        ),
        (
            "bouquet(2)",
            bouquet(2),
            2,
            7,
            Pinned(1, 1, 0, -1, tuple(2 ** (2**n - 1 + n) for n in range(8))),
        ),
    )


def wired_graph(
    rng: random.Random,
    r: int,
    edge_count: int,
    p: int,
    n0: Optional[int],
    name: str,
) -> DirectedMultigraph:
    """A connected multigraph on ``r`` vertices with ``edge_count`` edges.

    With ``n0`` set, vertex v sits in class v mod p**n0 and every edge
    steps one class forward, so every cycle weight is divisible by p**n0;
    wirings are drawn until the tower stabilizes at exactly ``n0``.  With
    ``n0`` None any wiring that admits a tower is accepted.
    """
    q = p ** (n0 or 0)
    for _ in range(WIRING_ATTEMPTS):
        order = list(range(r))
        rng.shuffle(order)
        placed = [order[0]]
        pending = order[1:]
        edges = []
        while pending:  # random spanning tree along allowed steps
            v = pending.pop(0)
            links = [(u, v) for u in placed if (v - u - 1) % q == 0]
            links += [(v, u) for u in placed if (u - v - 1) % q == 0]
            if not links:
                pending.append(v)
                continue
            edges.append(rng.choice(links))
            placed.append(v)
        while len(edges) < edge_count:
            s = rng.randrange(r)
            targets = [t for t in range(r) if (t - s - 1) % q == 0]
            edges.append((s, rng.choice(targets)))
        g = DirectedMultigraph(r, tuple(edges), name=name)
        level = stabilization_level(cycle_weight_profile(g), p)
        if level is not None and (n0 is None or level == n0):
            return g
    raise RuntimeError(f"no wiring of {name} met its constraints")


def _top_level(r: int, p: int, n0: int) -> int:
    n = n0 + 2
    while r * p ** (n + 1 - n0) <= CLIMB_TOP_VERTICES:
        n += 1
    return n


def _climb_shapes():
    """(r, edge_count, p, n0, n_max) of the seeded climb jobs: the top
    level keeps the tower component within CLIMB_TOP_VERTICES, and the
    cheaper levels below it come in two edge densities."""
    for r in range(3, 9):
        for p in (2, 3, 5):
            for n0 in (0, 1):
                if r < p**n0:
                    continue
                top = _top_level(r, p, n0)
                for n_max in range(max(n0 + 2, top - 3), top + 1):
                    yield r, r + 1, p, n0, n_max
                    if n_max < top:
                        yield r, r + 3, p, n0, n_max


def _charpoly_shapes():
    """(r, edge_count, p) of the charpoly jobs."""
    for r in range(16, 33, 2):
        for k, p in enumerate((2, 3, 5, 7)):
            for density in (3, 4, 5):
                yield r, r * density // 2 + k, p


# (r, p, n) of the derive-io jobs: r * p**n derived vertices, 10k to 20k.
DERIVE_SHAPES = (
    (3, 2, 12), (5, 2, 11), (7, 2, 11), (9, 2, 11),
    (12, 2, 10), (16, 2, 10), (24, 2, 9), (32, 2, 9),
    (2, 3, 8), (5, 3, 7), (7, 3, 7), (9, 3, 7),
    (14, 3, 6), (20, 3, 6), (27, 3, 6),
    (4, 5, 5), (6, 5, 5), (17, 5, 4), (24, 5, 4), (32, 5, 4),
    (1, 7, 5), (5, 7, 4), (8, 7, 4),
)


def _write(g: DirectedMultigraph, path: Path) -> str:
    documents.write_graph(g, str(path))
    return str(path)


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Generate the workload's corpus from ``seed`` and write its inputs."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out.json"
    jobs = []
    if workload == "climb":
        cases = []
        for i, (r, e, p, n0, n_max) in enumerate(_climb_shapes()):
            label = f"climb-{i:03d}"
            cases.append((label, wired_graph(rng, r, e, p, n0, label), p, n_max, None))
        cases += _pinned_cases()
        for label, g, p, n_max, pinned in cases:
            src = _write(g, workdir / f"{len(jobs):03d}.json")
            argv = ("verify", "-i", src, "--p", str(p), "--n-max", str(n_max),
                    "--json", "-o", str(out))
            jobs.append(Job(label, g, p, n_max, (argv,), (out,), pinned))
    elif workload == "charpoly":
        for i, (r, e, p) in enumerate(_charpoly_shapes()):
            g = wired_graph(rng, r, e, p, None, f"charpoly-{i:03d}")
            src = _write(g, workdir / f"{i:03d}.json")
            argv = ("invariants", "-i", src, "--p", str(p), "-o", str(out))
            jobs.append(Job(g.name, g, p, 0, (argv,), (out,)))
    elif workload == "derive-io":
        dot = workdir / "out.dot"
        shapes = [(r, e, p, n) for r, p, n in DERIVE_SHAPES for e in (r + 1, 2 * r + 1)]
        for i, (r, e, p, n) in enumerate(shapes):
            g = wired_graph(rng, r, e, p, None, f"derive-{i:03d}")
            src = _write(g, workdir / f"{i:03d}.json")
            derive_argv = ("derive", "-i", src, "--p", str(p), "--level", str(n),
                           "-o", str(out))
            dot_argv = ("export-dot", "-i", str(out), "-o", str(dot))
            jobs.append(Job(g.name, g, p, n, (derive_argv, dot_argv), (out, dot)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def digest(jobs: list[Job]) -> str:
    """SHA-256 over every job's graph, prime and level: two results with
    the same digest ran the same inputs."""
    h = hashlib.sha256()
    for job in jobs:
        doc = documents.graph_to_document(job.graph)
        h.update(json.dumps([job.label, job.p, job.level, doc]).encode())
    return h.hexdigest()
