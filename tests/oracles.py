"""Independent brute-force oracles the library implementations are checked
against.  These deliberately share no code with the package."""

import math
from collections import Counter, deque
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

from voltage_tower import (
    AugmentedVolcanoShape,
    CycleWeightProfile,
    DerivedGraph,
    DirectedMultigraph,
    EmptyGraphError,
    IntMatrix,
    IntPolynomial,
    NotAUnitError,
    NotConnectedError,
    NotSquareError,
    VolcanoShape,
)
from voltage_tower.generators import (
    CRATER_BARE,
    CRATER_CYCLE,
    CRATER_TWO_LOOPS,
)


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


def dense_bareiss(rows) -> int:
    """Bareiss elimination that updates every row below the pivot, written
    apart from the library's kernels as the reference they are checked
    against."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def matrix_pattern_schedule(rows):
    """Greedy minimum-degree elimination of the off-diagonal pattern of a
    matrix, made symmetric ((i, j) with rows[i][j] or rows[j][i] nonzero),
    ties broken by the least vertex: the planner that scanned the dense
    matrix, kept as the reference for the one that reads the edge list."""
    r = len(rows)
    nbrs = [
        {j for j in range(r) if j != i and (rows[i][j] or rows[j][i])}
        for i in range(r)
    ]
    left = set(range(r))
    schedule = []
    while left:
        v = min(left, key=lambda u: (len(nbrs[u]), u))
        left.remove(v)
        updates = []
        for u in sorted(nbrs[v]):
            nbrs[u] |= nbrs[v]
            nbrs[u] -= {u, v}
            updates.append((u, sorted(nbrs[u] | {u})))
        schedule.append((v, sorted(nbrs[v] | {v}), updates))
    return schedule


def loop_valuation(n: int, p: int) -> int:
    """v_p(n) of a nonzero integer, one division by p at a time."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def one_conversion_decimal_str(n: int) -> str:
    """Decimal digits of n by one ``Decimal`` conversion, with no digit
    limit; quadratic in the size of n."""
    return str(Decimal(n))


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


def tree_cycle_weight_profile(g: DirectedMultigraph) -> CycleWeightProfile:
    """Cycle weights by marking a BFS spanning tree: the gcd of the
    fundamental cycle weights theta(u) + 1 - theta(w) of the non-tree edges
    only, acyclic when every edge is a tree edge, connectivity by a
    separate walk."""
    require_bfs_connected(g)
    n = g.vertex_count
    incidence = [[] for _ in range(n)]
    for i, (s, t) in enumerate(g.edges):
        if s != t:
            incidence[s].append((i, t, +1))
            incidence[t].append((i, s, -1))
    theta = [0] * n
    in_tree = [False] * len(g.edges)
    visited = [False] * n
    visited[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for edge_idx, w, sign in incidence[v]:
            if not visited[w]:
                visited[w] = True
                in_tree[edge_idx] = True
                theta[w] = theta[v] + sign
                queue.append(w)
    non_tree = [i for i in range(len(g.edges)) if not in_tree[i]]
    if not non_tree:
        return CycleWeightProfile(CycleWeightProfile.ACYCLIC)
    gcd = 0
    for i in non_tree:
        u, w = g.edges[i]
        gcd = math.gcd(gcd, theta[u] + 1 - theta[w])
    return CycleWeightProfile(CycleWeightProfile.CYCLIC, gcd)


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


def fraction_determinant(rows) -> int:
    """Gaussian elimination over the rationals, for matrices too large
    for cofactor expansion."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    assert det.denominator == 1
    return det.numerator


def smith_normal_form(m: IntMatrix) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix (non-negative,
    zeros last)."""
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    size = min(nrows, ncols)
    factors = []
    t = 0
    while t < size:
        # locate a nonzero entry of least magnitude in the trailing block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            dirty = False
            for i in range(t + 1, nrows):
                q = a[i][t] // a[t][t]
                if q:
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, ncols):
                q = a[t][j] // a[t][t]
                if q:
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    dirty = True
            if dirty:
                pivot = min(
                    (
                        (i, j)
                        for i in range(t, nrows)
                        for j in range(t, ncols)
                        if a[i][j] != 0
                    ),
                    key=lambda ij: abs(a[ij[0]][ij[1]]),
                )
                continue
            # pivot must divide the rest of the block for the divisibility
            # chain; if not, fold the offending row in and restart
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
            pivot = (t, t)
        factors.append(abs(a[t][t]))
        t += 1
    factors.extend([0] * (size - len(factors)))
    return factors


def relabel_by_unit(d: DerivedGraph, u: int) -> DerivedGraph:
    """Rename every vertex (v, sigma) to (v, u * sigma); for a unit u this
    is an isomorphism of coverings of the base."""
    modulus = d.modulus
    if math.gcd(u, modulus) != 1:
        raise NotAUnitError(f"{u} is not a unit modulo {modulus}")
    nv = d.base_vertex_count

    def rename(idx: int) -> int:
        sigma, v = divmod(idx, nv)
        return (u * sigma % modulus) * nv + v

    g = d.graph
    edges = tuple((rename(s), rename(t)) for s, t in g.edges)
    labels = g.vertex_labels
    if labels is not None:
        labels = tuple(
            f"v{v}@{sigma}" for sigma in range(modulus) for v in range(nv)
        )
    name = f"{g.name}*{u}"
    renamed = DirectedMultigraph(g.vertex_count, edges, labels, name)
    return DerivedGraph(renamed, d.base_vertex_count, d.level)


def sheet_by_sheet_derive(
    base: DirectedMultigraph, p: int, param: int, n: int
) -> DerivedGraph:
    """Derived graph of the constant voltage ``param`` modulo p^n, built one
    edge at a time: for each base edge (s, t), then for each sheet sigma,
    the edge (s, sigma) -> (t, sigma + param), with vertex (v, sigma) at
    index sigma * |V| + v and labelled ``v{v}@{sigma}``."""
    if n == 0:
        return DerivedGraph(base, base.vertex_count, 0)
    modulus = p**n
    a = param % modulus
    nv = base.vertex_count
    edges = []
    for s, t in base.edges:
        for sigma in range(modulus):
            edges.append((sigma * nv + s, ((sigma + a) % modulus) * nv + t))
    labels = tuple(
        f"v{v}@{sigma}" for sigma in range(modulus) for v in range(nv)
    )
    name = f"derive({base.name},p={p},n={n})"
    g = DirectedMultigraph(modulus * nv, tuple(edges), labels, name)
    return DerivedGraph(g, nv, n)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def line_by_line_dot(g: DirectedMultigraph) -> str:
    """DOT text of a graph, one formatted line per vertex and per edge."""
    lines = [f"digraph {_dot_quote(g.name)} {{"]
    for v in range(g.vertex_count):
        label = g.vertex_labels[v] if g.vertex_labels else f"v{v}"
        lines.append(f"  n{v} [label={_dot_quote(label)}];")
    for s, t in g.edges:
        lines.append(f"  n{s} -> n{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bfs_components(g: DirectedMultigraph) -> list[list[int]]:
    """Connected components of the undirected image by breadth-first
    search over an adjacency list read off ``g.edges``, each sorted,
    ordered by smallest vertex."""
    if g.vertex_count == 0:
        raise EmptyGraphError("graph has no vertices")
    adjacency = [[] for _ in range(g.vertex_count)]
    for s, t in g.edges:
        adjacency[s].append(t)
        adjacency[t].append(s)
    seen = [False] * g.vertex_count
    out = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = [start]
        while queue:
            for w in adjacency[queue.popleft()]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def require_bfs_connected(g: DirectedMultigraph) -> None:
    """The connectivity rule's errors and messages, decided by
    ``bfs_components``."""
    count = len(bfs_components(g))
    if count > 1:
        raise NotConnectedError(
            f"{g.name} is not connected: its undirected image has "
            f"{count} components"
        )


def component_count(g: DirectedMultigraph) -> int:
    return len(bfs_components(g))


def fit_growth_parameters(
    points: Sequence[tuple[int, int]], p: int
) -> Optional[tuple[int, int, int]]:
    """Solve ord = mu p^m + lam m + nu exactly through the last three
    (m, ord) points; None if the solution is not integral."""
    if len(points) < 3:
        raise ValueError("need at least three data points")
    (m0, y0), (m1, y1), (m2, y2) = points[-3:]
    # eliminate nu, then lam
    a1, b1, c1 = p**m1 - p**m0, m1 - m0, y1 - y0
    a2, b2, c2 = p**m2 - p**m1, m2 - m1, y2 - y1
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    mu, mu_rem = divmod(c1 * b2 - c2 * b1, det)
    lam, lam_rem = divmod(a1 * c2 - a2 * c1, det)
    if mu_rem or lam_rem:
        return None
    nu = y0 - mu * p**m0 - lam * m0
    return mu, lam, nu


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _matrix_power(a, e: int):
    # binary powering, e >= 1
    result = None
    while e:
        if e & 1:
            result = a if result is None else _matmul(result, a)
        e >>= 1
        if e:
            a = _matmul(a, a)
    return result


def companion_resultants(coeffs, p: int, first: int, last: int) -> list:
    """|Res(Phi_{p^k}, Q)| for k = first..last from powers of a scaled
    companion matrix; Q is given by ascending coefficients, nonzero.

    With c the leading coefficient of Q and m its degree, M = c *
    companion(Q / c) has c on the subdiagonal and -q_i in the last column,
    and the roots of Q are the eigenvalues of M / c.  With s = p^(k-1) and
    N = (p - 1)s, clearing c^N from Phi_{p^k}(M / c) gives

        Res(Phi_{p^k}, Q) = +-det(sum_{j<p} c^((p-1-j)s) M^(js)) / c^(N(m-1)).
    """
    coeffs = list(coeffs)
    while coeffs[-1] == 0:
        coeffs.pop()
    m = len(coeffs) - 1
    c = coeffs[-1]
    companion = [[c if j == i - 1 else 0 for j in range(m)] for i in range(m)]
    for i in range(m):
        companion[i][m - 1] = -coeffs[i]
    power = _matrix_power(companion, p ** (first - 1))
    out = []
    for k in range(first, last + 1):
        s = p ** (k - 1)
        a = c**s
        total = [
            [a ** (p - 1) if i == j else 0 for j in range(m)] for i in range(m)
        ]
        step = power  # M^(js), j = 1..p-1, then M^(ps) for the next level
        for j in range(1, p):
            scale = a ** (p - 1 - j)
            total = [
                [t + scale * x for t, x in zip(t_row, x_row)]
                for t_row, x_row in zip(total, step)
            ]
            if j < p - 1 or k < last:
                step = _matmul(step, power)
        power = step
        n_deg = (p - 1) * s
        # det * c^N / c^(N m) is det / c^(N(m-1)), and also holds for a
        # constant Q (m = 0, empty determinant 1)
        value, rem = divmod(
            fraction_determinant(total) * c**n_deg, c ** (n_deg * m)
        )
        assert rem == 0, "resultant is not an integer"
        out.append(abs(value))
    return out


def cyclotomic_prime_power(p: int, k: int) -> list:
    """Ascending coefficients of Phi_{p^k}(x) = sum_{j<p} x^(j p^(k-1))."""
    s = p ** (k - 1)
    coeffs = [0] * ((p - 1) * s + 1)
    for j in range(p):
        coeffs[j * s] = 1
    return coeffs


def _default_points(count: int) -> list:
    # 0, 1, -1, 2, -2, ...
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts[:count]


def lagrange_coefficients(xs, ys) -> list:
    """Ascending rational coefficients of the polynomial of degree below
    len(xs) through the points (xs, ys)."""
    total = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(yi)]  # yi prod_{j != i} (x - xj) / (xi - xj)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            shifted = [Fraction(0)] + basis
            for k, b in enumerate(basis):
                shifted[k] -= xj * b
            basis = [b / (xi - xj) for b in shifted]
        for k, b in enumerate(basis):
            total[k] += b
    return total


def poly_matrix_determinant(coefficients) -> IntPolynomial:
    """Determinant of the matrix polynomial C_0 + C_1 T + ... + C_d T^d.

    The C_k are square integer matrices of one size n, so the determinant
    has degree at most n * d.  The sum is evaluated at the n * d + 1
    integers 0, 1, -1, 2, -2, ..., each evaluation's determinant is taken
    by rational elimination, and Lagrange interpolation over the rationals
    must give integer coefficients.
    """
    if not coefficients:
        raise ValueError("need at least one coefficient matrix")
    n = len(coefficients[0])
    if any(
        len(c) != n or any(len(row) != n for row in c) for c in coefficients
    ):
        raise NotSquareError("coefficient matrices are not square of one size")
    xs = _default_points(n * (len(coefficients) - 1) + 1)
    ys = []
    for x in xs:
        m = [[0] * n for _ in range(n)]
        for k, c in enumerate(coefficients):
            for i in range(n):
                for j in range(n):
                    m[i][j] += c[i][j] * x**k
        ys.append(fraction_determinant(m))
    coeffs = lagrange_coefficients(xs, ys)
    assert all(c.denominator == 1 for c in coeffs), "not an integer polynomial"
    return IntPolynomial(tuple(c.numerator for c in coeffs))


def charpoly_2r_plus_1(g: DirectedMultigraph) -> IntPolynomial:
    """P(T) as the determinant of the matrix polynomial (D - A - A^t) +
    (D - 2A) T - A T^2 at 2r + 1 nodes, with D and A read off the edge
    list (D counts a loop twice, A once)."""
    r = g.vertex_count
    adj = [[0] * r for _ in range(r)]
    deg = [0] * r
    for s, t in g.edges:
        adj[s][t] += 1
        deg[s] += 1
        deg[t] += 1
    diag = [[deg[i] if i == j else 0 for j in range(r)] for i in range(r)]
    c0 = [
        [diag[i][j] - adj[i][j] - adj[j][i] for j in range(r)] for i in range(r)
    ]
    c1 = [[diag[i][j] - 2 * adj[i][j] for j in range(r)] for i in range(r)]
    c2 = [[-a for a in row] for row in adj]
    return poly_matrix_determinant([c0, c1, c2])


def least_x_order(g: DirectedMultigraph) -> Optional[int]:
    """The least x-order of a Leibniz term of Q(x) = det(Dx - Ax^2 - A^t):
    the minimum over all permutations sigma of sum_i ord_x M(x)[i][sigma(i)],
    each entry's coefficients of 1, x and x^2 read off the edge list (D
    counts a loop twice, A once).  None when every permutation meets a zero
    entry.  Every permutation is tried, row by row, with the permutations
    that agree on which columns rows 0..i-1 take merged at row i, keeping
    the least sum: exponential in r, meant for r <= 7 and the test corpus."""
    r = g.vertex_count
    entry = [[[0, 0, 0] for _ in range(r)] for _ in range(r)]
    for s, t in g.edges:
        entry[s][s][1] += 1
        entry[t][t][1] += 1
        entry[s][t][2] -= 1
        entry[t][s][0] -= 1
    orders = [
        [next((o for o, c in enumerate(e) if c), None) for e in row]
        for row in entry
    ]
    least = {frozenset(): 0}  # columns taken so far -> least sum
    for row in orders:
        ahead = {}
        for taken, total in least.items():
            for j, order in enumerate(row):
                if order is not None and j not in taken:
                    key = taken | {j}
                    ahead[key] = min(ahead.get(key, math.inf), total + order)
        least = ahead
    return min(least.values(), default=None)


# Polynomial arithmetic on ascending coefficient sequences, as IntPolynomial's
# operators had it.  Results are tuples with trailing zeros trimmed, so
# IntPolynomial(result) holds the same coefficients.


def _trimmed(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(coeffs, x: int) -> int:
    """The polynomial's value at x, by Horner's rule."""
    acc = 0
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


def poly_add(a, b) -> tuple:
    a, b = tuple(a), tuple(b)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trimmed(out)


def poly_scale(a, k: int) -> tuple:
    return _trimmed(k * c for c in a)


def poly_sub(a, b) -> tuple:
    return poly_add(a, poly_scale(b, -1))


def poly_mul(a, b) -> tuple:
    a, b = _trimmed(a), _trimmed(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def poly_pow(a, n: int) -> tuple:
    """a^n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative power")
    result, base = (1,), _trimmed(a)
    while n:
        if n & 1:
            result = poly_mul(result, base)
        base = poly_mul(base, base)
        n >>= 1
    return result


# The volcano recognizers as the library had them before they were merged
# into one: a crater walk and a peel-and-layer check each for volcanoes
# and for augmented volcanoes.  Kept verbatim as the equivalence oracle.

class _UndirectedView:
    """Multiplicity-aware undirected view used by the recognizers."""

    def __init__(self, g: DirectedMultigraph):
        self.n = g.vertex_count
        self.loops = [0] * self.n
        self.neighbors: list[Counter] = [Counter() for _ in range(self.n)]
        for s, t in g.edges:
            if s == t:
                self.loops[s] += 1
            else:
                self.neighbors[s][t] += 1
                self.neighbors[t][s] += 1

    def degree(self, v: int) -> int:
        """Loops counted once."""
        return sum(self.neighbors[v].values()) + self.loops[v]


def _classify_crater(
    view: _UndirectedView, vertices: set[int]
) -> Optional[tuple[str, int]]:
    """Classify the subgraph induced on ``vertices`` as a crater shape."""
    if len(vertices) == 1:
        (v,) = vertices
        loops = view.loops[v]
        if loops == 0:
            return (CRATER_BARE, 1)
        if loops == 1:
            return (CRATER_CYCLE, 1)
        if loops == 2:
            return (CRATER_TWO_LOOPS, 1)
        return None
    if any(view.loops[v] for v in vertices):
        return None
    if len(vertices) == 2:
        u, v = sorted(vertices)
        if view.neighbors[u][v] == 2:
            return (CRATER_CYCLE, 2)
        return None
    # length >= 3: every vertex has exactly two inside neighbors, each
    # simple, and one closed walk covers everything
    inside = {
        v: [
            w
            for w, mult in view.neighbors[v].items()
            if w in vertices
            for _ in range(mult)
        ]
        for v in vertices
    }
    if any(len(nbrs) != 2 for nbrs in inside.values()):
        return None
    if any(len(set(nbrs)) != 2 for nbrs in inside.values()):
        return None
    start = min(vertices)
    prev, cur = start, inside[start][0]
    seen = 1
    while cur != start:
        nxt = [w for w in inside[cur] if w != prev]
        if len(nxt) != 1:
            return None
        prev, cur = cur, nxt[0]
        seen += 1
        if seen > len(vertices):
            return None
    if seen != len(vertices):
        return None
    return (CRATER_CYCLE, len(vertices))


def _classify_double_crater(
    view: _UndirectedView, vertices: set[int]
) -> Optional[int]:
    """Length of the double crater induced on ``vertices``, or None."""
    s = len(vertices)
    if s < 2 or any(view.loops[v] for v in vertices):
        return None
    inside = {
        v: {w: mult for w, mult in view.neighbors[v].items() if w in vertices}
        for v in vertices
    }
    if s == 2:
        u, v = sorted(vertices)
        return 2 if inside[u].get(v, 0) == 4 else None
    for nbrs in inside.values():
        if len(nbrs) != 2 or any(mult != 2 for mult in nbrs.values()):
            return None
    start = min(vertices)
    prev, cur = start, sorted(inside[start])[0]
    seen = 1
    while cur != start:
        nxt = [w for w in inside[cur] if w != prev]
        if len(nxt) != 1:
            return None
        prev, cur = cur, nxt[0]
        seen += 1
        if seen > s:
            return None
    return s if seen == s else None


def _peel_levels(
    view: _UndirectedView, is_core
) -> Optional[tuple[list[set[int]], set[int]]]:
    """Strip degree-1 loop-free vertices round by round until ``is_core``
    accepts the remainder; returns (levels outermost first, core)."""
    remaining = set(range(view.n))
    degree = {v: view.degree(v) for v in remaining}
    levels: list[set[int]] = []
    while not is_core(remaining):
        leaves = {
            v for v in remaining if degree[v] == 1 and view.loops[v] == 0
        }
        if not leaves:
            return None
        for v in leaves:
            for w, mult in view.neighbors[v].items():
                if w in remaining and w not in leaves:
                    degree[w] -= mult
        remaining -= leaves
        if not remaining:
            return None
        levels.append(leaves)
    return levels, remaining


def _validate_levels(
    view: _UndirectedView, level_of: dict[int, int], depth: int
) -> bool:
    """The shared layer axioms: edges stay within adjacent levels, levels
    past the crater are totally disconnected, and every vertex below the
    crater hangs from exactly one parent."""
    parents = Counter()
    for v in range(view.n):
        lv = level_of[v]
        if lv > 0 and view.loops[v]:
            return False
        for w, mult in view.neighbors[v].items():
            if w < v:
                continue
            lw = level_of[w]
            if abs(lv - lw) > 1:
                return False
            if lv == lw and lv > 0:
                return False
            if lv != lw:
                child = v if lv > lw else w
                parents[child] += mult
    for v in range(view.n):
        if level_of[v] > 0 and parents[v] != 1:
            return False
    return True


def split_recognize_volcano(g: DirectedMultigraph) -> Optional[VolcanoShape]:
    """Classify ``g`` (treated as undirected) as an abstract l-volcano."""
    require_bfs_connected(g)
    view = _UndirectedView(g)
    peeled = _peel_levels(
        view, lambda vs: _classify_crater(view, vs) is not None
    )
    if peeled is None:
        return None
    levels, crater_vertices = peeled
    crater = _classify_crater(view, crater_vertices)
    depth = len(levels)
    level_of = {v: 0 for v in crater_vertices}
    for i, level in enumerate(levels):
        for v in level:
            level_of[v] = depth - i
    if depth == 0:
        return VolcanoShape(None, 0, crater[0], crater[1])
    upper_degrees = {
        view.degree(v) for v in range(view.n) if level_of[v] < depth
    }
    if len(upper_degrees) != 1:
        return None
    l = upper_degrees.pop() - 1
    if l < 1:
        return None
    if any(view.degree(v) != 1 for v in levels[0]):
        return None
    if not _validate_levels(view, level_of, depth):
        return None
    return VolcanoShape(l, depth, crater[0], crater[1])


def split_recognize_augmented_volcano(
    g: DirectedMultigraph,
) -> Optional[AugmentedVolcanoShape]:
    """Classify ``g`` as an augmented volcano: a double crater with l-ary
    levels below, crater degree l+3."""
    require_bfs_connected(g)
    view = _UndirectedView(g)
    peeled = _peel_levels(
        view, lambda vs: _classify_double_crater(view, vs) is not None
    )
    if peeled is None:
        return None
    levels, crater_vertices = peeled
    crater_length = _classify_double_crater(view, crater_vertices)
    depth = len(levels)
    level_of = {v: 0 for v in crater_vertices}
    for i, level in enumerate(levels):
        for v in level:
            level_of[v] = depth - i
    if depth == 0:
        if any(view.degree(v) != 4 for v in crater_vertices):
            return None
        return AugmentedVolcanoShape(None, 0, crater_length)
    crater_degrees = {view.degree(v) for v in crater_vertices}
    if len(crater_degrees) != 1:
        return None
    l = crater_degrees.pop() - 3
    if l < 1:
        return None
    for v in range(view.n):
        lv = level_of[v]
        if lv == 0:
            continue
        expected = 1 if lv == depth else l + 1
        if view.degree(v) != expected:
            return None
    if not _validate_levels(view, level_of, depth):
        return None
    return AugmentedVolcanoShape(l, depth, crater_length)


def split_is_double_crater(g: DirectedMultigraph) -> Optional[int]:
    """Length of ``g`` as a double crater (every cycle edge doubled), or
    None when the shape does not match."""
    require_bfs_connected(g)
    view = _UndirectedView(g)
    return _classify_double_crater(view, set(range(g.vertex_count)))


def split_is_augmented_volcano(g: DirectedMultigraph) -> bool:
    return split_recognize_augmented_volcano(g) is not None
