"""Independent brute-force oracles the library implementations are checked
against.  These deliberately share no code with the package."""

import math

from voltage_tower import DirectedMultigraph


def cofactor_determinant(rows) -> int:
    """Naive Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_determinant(minor)
    return total


def simple_cycle_weights(g: DirectedMultigraph) -> set:
    """Weights of all vertex-simple directed cycles of the doubled graph
    (each original edge plus a reverse partner of weight -1)."""
    arcs = []
    for s, t in g.edges:
        arcs.append((s, t, 1))
        arcs.append((t, s, -1))
    outgoing = {}
    for idx, (s, t, w) in enumerate(arcs):
        outgoing.setdefault(s, []).append((idx, t, w))
    weights = set()

    def extend(start, v, visited, used_arcs, weight):
        for idx, t, w in outgoing.get(v, ()):
            if idx in used_arcs:
                continue
            if t == start:
                weights.add(weight + w)
            elif t not in visited:
                visited.add(t)
                used_arcs.add(idx)
                extend(start, t, visited, used_arcs, weight + w)
                used_arcs.discard(idx)
                visited.discard(t)

    for start in range(g.vertex_count):
        extend(start, start, {start}, set(), 0)
    return weights


def cycle_weight_gcd(g: DirectedMultigraph):
    """gcd of all simple cycle weights, None when the doubled graph has no
    cycles at all (impossible once g has an edge)."""
    weights = simple_cycle_weights(g)
    if not weights:
        return None
    gcd = 0
    for w in weights:
        gcd = math.gcd(gcd, w)
    return gcd


def sylvester_matrix(f, g):
    """Sylvester matrix of two polynomials given by ascending coefficients;
    its determinant is the resultant Res(f, g)."""
    n, m = len(f) - 1, len(g) - 1
    rows = []
    for coeffs, shifts in ((f, m), (g, n)):
        for i in range(shifts):
            row = [0] * (n + m)
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return rows


def cyclotomic_prime_power(p: int, k: int) -> list:
    """Ascending coefficients of Phi_{p^k}(x) = sum_{j<p} x^(j p^(k-1))."""
    s = p ** (k - 1)
    coeffs = [0] * ((p - 1) * s + 1)
    for j in range(p):
        coeffs[j * s] = 1
    return coeffs
