"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from voltage_tower import DirectedMultigraph


@st.composite
def connected_multigraphs(draw, max_vertices=5):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    tree = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    ]
    extra_count = draw(st.integers(min_value=0, max_value=5))
    extra = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(extra_count)
    ]
    return DirectedMultigraph(n, tuple(tree + extra))


@st.composite
def looped_multigraphs(draw):
    """Connected multigraphs on 1 to 6 vertices with at least one loop
    and at least one pair of parallel edges, in shuffled edge order."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    ]
    v = draw(vertex)
    edges.append((v, v))
    edges.append(draw(st.sampled_from(edges)))
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    return DirectedMultigraph(n, tuple(draw(st.permutations(edges))))


@st.composite
def paired_multigraphs(draw):
    """Multigraphs on 1 to 7 vertices, connected or not, whose drawn edges
    may come with a loop, a parallel copy or an antiparallel partner, in
    shuffled edge order."""
    n = draw(st.integers(min_value=1, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = []
    for s, t in draw(st.lists(st.tuples(vertex, vertex), max_size=8)):
        edges.append((s, t))
        # nothing, a loop, a parallel copy or an antiparallel partner
        edges += draw(st.sampled_from(([], [(s, s)], [(s, t)], [(t, s)])))
    return DirectedMultigraph(n, tuple(draw(st.permutations(edges))))


@st.composite
def sourced_multigraphs(draw):
    """Connected multigraphs on 1 to 6 vertices, each a source (no in-edge,
    so no loop), a sink (no out-edge) or free, with a loop on a free vertex
    where there is one and parallel edges.  A draw may leave out the free
    role, so that every vertex is a source or a sink."""
    n = draw(st.integers(min_value=1, max_value=6))
    kinds = ["source", "sink"]
    if draw(st.booleans()):
        kinds.append("free")
    role = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))

    def allows(s, t):
        return role[s] != "sink" and role[t] != "source"

    def ways(v):
        # the edges between v and an earlier vertex that the roles allow
        pairs = [(u, v) for u in range(v)] + [(v, u) for u in range(v)]
        return [(s, t) for s, t in pairs if allows(s, t)]

    edges = []
    for v in range(1, n):
        if not ways(v):  # every earlier vertex has v's role: take the other
            role[v] = "sink" if role[v] == "source" else "source"
        edges.append(draw(st.sampled_from(ways(v))))
    free = [v for v in range(n) if role[v] == "free"]
    if free:
        v = draw(st.sampled_from(free))
        edges.append((v, v))
    allowed = [(s, t) for s in range(n) for t in range(n) if allows(s, t)]
    if allowed:
        edges += draw(st.lists(st.sampled_from(allowed), max_size=6))
    return DirectedMultigraph(n, tuple(edges))


@st.composite
def weights_divisible_by(draw, p):
    """Connected multigraphs whose every cycle weight is divisible by p.

    Each vertex gets a height mod p and every edge s -> t climbs one step,
    h(t) = h(s) + 1 mod p, so a closed walk (forward minus backward edges)
    returns to its height only after a multiple of p net steps.  A graph
    drawn here that has a tower therefore has n0 >= 1.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    height = [0]
    edges = []
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        if draw(st.booleans()):
            edges.append((u, v))
            height.append((height[u] + 1) % p)
        else:
            edges.append((v, u))
            height.append((height[u] - 1) % p)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        s = draw(st.integers(min_value=0, max_value=n - 1))
        targets = [t for t in range(n) if (height[t] - height[s]) % p == 1]
        if targets:
            edges.append((s, draw(st.sampled_from(targets))))
    return DirectedMultigraph(n, tuple(edges))
