"""Shared helpers for the test suite: random objects and independent oracles.

The oracles here are deliberately written from scratch with the most naive
correct algorithm available (dense textbook elimination, exhaustive path
enumeration, per-pair circuit solves) so they share no code with the
package implementations they check. The previous implementations of
replaced fast paths (rational Brandes, the per-pair current-flow loop)
are kept here as oracles for the paths that replaced them.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from localhomology import ChainComplexRep, ExactMatrix, Graph, SimplicialComplex, maximal_cliques

# -- random structures -------------------------------------------------------


def random_complex(rng: random.Random, n_vertices=7, n_maximal=5, max_size=4) -> SimplicialComplex:
    simplices = []
    for _ in range(n_maximal):
        size = rng.randint(1, max_size)
        simplices.append(rng.sample(range(n_vertices), min(size, n_vertices)))
    return SimplicialComplex.from_maximal(simplices)


def random_connected_complex(rng: random.Random, n_vertices=7, n_maximal=5, max_size=4) -> SimplicialComplex:
    """Random complex made connected by chaining a vertex from each piece."""
    base = random_complex(rng, n_vertices, n_maximal, max_size)
    maximal = [list(s) for s in base.maximal]
    verts = sorted({v for s in maximal for v in s})
    seen = {verts[0]}
    extra = []
    for s in maximal:
        if not (set(s) & seen):
            anchor = rng.choice(sorted(seen))
            extra.append([anchor, s[0]] if anchor != s[0] else [s[0]])
        seen.update(s)
    return SimplicialComplex.from_maximal(maximal + [e for e in extra if len(e) == 2])


def cone_over(complex: SimplicialComplex) -> SimplicialComplex:
    """Join every maximal simplex with one fresh apex vertex."""
    apex = complex.n_vertices
    return SimplicialComplex.from_maximal(
        [list(s) + [apex] for s in sorted(complex.maximal)]
    )


def random_open_set(rng: random.Random, complex: SimplicialComplex, n_seeds=2):
    faces = sorted(complex.all_faces())
    if not faces:
        return complex.empty_set()
    seeds = rng.sample(faces, min(n_seeds, len(faces)))
    return complex.star(seeds)


def random_connected_graph(rng: random.Random, n: int, extra_edges: int | None = None) -> Graph:
    """Random tree plus a few extra edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    if extra_edges is None:
        extra_edges = rng.randint(0, n)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pool)
    edges.update(pool[:extra_edges])
    return Graph(n, sorted(edges))


def random_tree(rng: random.Random, n: int) -> Graph:
    return random_connected_graph(rng, n, extra_edges=0)


def graph_as_one_complex(graph: Graph) -> SimplicialComplex:
    return SimplicialComplex.from_maximal(
        [[v] for v in range(graph.n)] + [list(e) for e in graph.edges]
    )


# -- geometric fixtures ------------------------------------------------------


def tetrahedron_boundary() -> SimplicialComplex:
    """The four triangles of a solid tetrahedron: a 2-sphere."""
    return SimplicialComplex.from_maximal([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def annulus_complex():
    """16-triangle annulus: two concentric octagons.

    Inner ring vertices 0..7, outer ring 8..15. Returns the complex plus the
    boundary and interior simplex sets (as frozensets of faces).
    """
    triangles = []
    for k in range(8):
        k1 = (k + 1) % 8
        triangles.append([k, k1, 8 + k1])
        triangles.append([k, 8 + k, 8 + k1])
    complex = SimplicialComplex.from_maximal(triangles)
    boundary = set()
    for k in range(8):
        k1 = (k + 1) % 8
        boundary.add(complex.simplex_with_labels([k]))
        boundary.add(complex.simplex_with_labels([8 + k]))
        boundary.add(complex.simplex_with_labels([k, k1]))
        boundary.add(complex.simplex_with_labels([8 + k, 8 + k1]))
    interior = set(complex.all_faces()) - boundary
    return complex, frozenset(boundary), frozenset(interior)


def triple_triangle() -> SimplicialComplex:
    """Three triangles glued along one common edge."""
    return SimplicialComplex.from_maximal([[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def torus_complex() -> SimplicialComplex:
    """Seven-vertex triangulated torus (every vertex pair is an edge)."""
    triangles = []
    for i in range(7):
        triangles.append(sorted([i, (i + 1) % 7, (i + 3) % 7]))
        triangles.append(sorted([i, (i + 2) % 7, (i + 3) % 7]))
    return SimplicialComplex.from_maximal(triangles)


def wedge_of_two_circles() -> SimplicialComplex:
    """Two triangle circuits sharing vertex 0."""
    return SimplicialComplex.from_maximal(
        [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]]
    )


def fan_disk(spokes: int = 6) -> SimplicialComplex:
    """Triangulated disk: hub vertex 0, rim 1..spokes."""
    triangles = []
    for i in range(1, spokes + 1):
        j = i % spokes + 1
        triangles.append([0, i, j])
    return SimplicialComplex.from_maximal(triangles)


def projective_plane() -> SimplicialComplex:
    """Six-vertex, ten-triangle real projective plane.

    Every edge lies in exactly two triangles, so the ten triangle boundaries
    sum to zero mod 2 but are independent over Q: H_2 vanishes over Q and
    not over GF(2).
    """
    return SimplicialComplex.from_maximal(
        [
            [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
            [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5],
        ]
    )


# -- matrix helpers ------------------------------------------------------------
# Dense views and algebra on ExactMatrix that only the tests need.


def from_rows(data, cols=None) -> ExactMatrix:
    ncols = cols if cols is not None else (len(data[0]) if data else 0)
    if any(len(row) != ncols for row in data):
        raise ValueError("ragged rows")
    entries = {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row) if v}
    return ExactMatrix(len(data), ncols, entries)


def identity_matrix(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(
        matrix.cols, matrix.rows, {(j, i): v for (i, j), v in matrix.entries.items()}
    )


def to_dense(matrix: ExactMatrix) -> list[list[Fraction]]:
    out = [[Fraction(0)] * matrix.cols for _ in range(matrix.rows)]
    for (i, j), v in matrix.entries.items():
        out[i][j] = v
    return out


def apply(matrix: ExactMatrix, vector) -> tuple[Fraction, ...]:
    if len(vector) != matrix.cols:
        raise ValueError("vector length does not match column count")
    vec = [Fraction(v) for v in vector]
    out = [Fraction(0)] * matrix.rows
    for (i, j), v in matrix.entries.items():
        if vec[j]:
            out[i] += v * vec[j]
    return tuple(out)


def sparse_vector(vector) -> dict:
    """{index: value} for the nonzero entries of a dense vector."""
    return {i: v for i, v in enumerate(vector) if v}


def dense_vector(vector: dict, length: int) -> list:
    """The dense vector of the given length with an {index: value} vector's entries."""
    out = [0] * length
    for i, v in vector.items():
        out[i] = v
    return out


def oracle_matmul(left, right, cols: int) -> list[list[Fraction]]:
    """Product of dense matrices (lists of rows; right has `cols` columns), by the triple loop."""
    return [
        [sum((Fraction(a) * Fraction(right[k][j]) for k, a in enumerate(row)), Fraction(0)) for j in range(cols)]
        for row in left
    ]


def hstack(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    if left.rows != right.rows:
        raise ValueError("row counts differ")
    entries = dict(left.entries)
    for (i, j), v in right.entries.items():
        entries[(i, j + left.cols)] = v
    return ExactMatrix(left.rows, left.cols + right.cols, entries)


# -- independent oracles -----------------------------------------------------


def naive_closure(members) -> frozenset:
    """Every nonempty vertex subset of every member simplex."""
    out = set()
    for s in members:
        for r in range(1, len(s) + 1):
            out.update(combinations(s, r))
    return frozenset(out)


def naive_star(complex: SimplicialComplex, members) -> frozenset:
    """Every face that contains some member, scanning every face of the complex."""
    member_sets = [set(s) for s in members]
    return frozenset(
        f for f in naive_closure(complex.maximal) if any(s <= set(f) for s in member_sets)
    )


def naive_contains(complex: SimplicialComplex, simplex) -> bool:
    """Membership by a scan of every maximal simplex."""
    if not isinstance(simplex, tuple) or not simplex:
        return False
    return any(set(simplex) <= set(m) for m in complex.maximal)


def oracle_chain_complex(complex: SimplicialComplex, basis) -> ChainComplexRep:
    """Chain complex on the given basis faces, from the definition.

    Per dimension the basis faces come in lexicographic order, and the
    boundary of a face has the entry (-1)^i at the face that drops its
    i-th vertex, when that face is a basis face; other facets are left out.
    """
    basis = set(basis)
    bases = tuple(
        tuple(sorted(s for s in basis if len(s) == k + 1)) for k in range(complex.dim + 1)
    )
    boundaries = []
    for k, columns in enumerate(bases):
        rows = bases[k - 1] if k > 0 else ()
        entries = {}
        for col, simplex in enumerate(columns):
            for i in range(len(simplex)):
                face = simplex[:i] + simplex[i + 1:]
                if face in rows:
                    entries[(rows.index(face), col)] = (-1) ** i
        boundaries.append(ExactMatrix(len(rows), len(columns), entries))
    return ChainComplexRep(bases=bases, boundaries=tuple(boundaries))


def oracle_flag_complex(graph: Graph) -> SimplicialComplex:
    """Flag complex through label interning: every vertex as a singleton, then
    every maximal clique by its labels, so interned ids are the graph's ids."""
    singletons = [[graph.labels[v]] for v in range(graph.n)]
    cliques = [[graph.labels[v] for v in clique] for clique in maximal_cliques(graph)]
    return SimplicialComplex.from_maximal(singletons + cliques)


def naive_maximal(simplices) -> set[frozenset]:
    """Inputs, as label sets, that are no proper subset of another input."""
    sets = [frozenset(s) for s in simplices]
    return {s for s in sets if not any(s < t for t in sets)}


def oracle_rank_dense(rows) -> int:
    """Textbook dense Gaussian elimination over Fractions, first-nonzero pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def oracle_rank_minors(rows) -> int:
    """Rank by exhaustive minor expansion; only for tiny matrices."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = Fraction(0)
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            term = sub[0][j] * det(minor)
            total += term if j % 2 == 0 else -term
        return total

    nrows, ncols = len(m), len(m[0])
    for size in range(min(nrows, ncols), 0, -1):
        for rset in combinations(range(nrows), size):
            for cset in combinations(range(ncols), size):
                sub = [[m[i][j] for j in cset] for i in rset]
                if det(sub) != 0:
                    return size
    return 0


def oracle_betweenness(graph: Graph) -> list[Fraction]:
    """All-pairs shortest-path enumeration; exact pair-count betweenness."""

    def all_shortest_paths(s, t):
        best = None
        results = []
        stack = [(s, [s])]
        while stack:
            u, path = stack.pop()
            if best is not None and len(path) - 1 > best:
                continue
            if u == t:
                if best is None or len(path) - 1 < best:
                    best = len(path) - 1
                    results = [path]
                elif len(path) - 1 == best:
                    results.append(path)
                continue
            for w in sorted(graph.adjacency[u]):
                if w not in path:
                    stack.append((w, path + [w]))
        return [p for p in results if len(p) - 1 == best]

    scores = [Fraction(0)] * graph.n
    for s in range(graph.n):
        for t in range(s + 1, graph.n):
            paths = all_shortest_paths(s, t)
            if not paths:
                continue
            total = len(paths)
            for path in paths:
                for w in path[1:-1]:
                    scores[w] += Fraction(1, total)
    return scores


def oracle_current_flow(graph: Graph) -> list[float]:
    """Per-pair circuit solve with numpy least squares on the full Laplacian."""
    import numpy as np

    n = graph.n
    a = np.zeros((n, n))
    for u, v in graph.edges:
        a[u, v] = a[v, u] = 1.0
    lap = np.diag(a.sum(axis=1)) - a
    totals = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            inject = np.zeros(n)
            inject[s], inject[t] = 1.0, -1.0
            potentials, *_ = np.linalg.lstsq(lap, inject, rcond=None)
            through = np.zeros(n)
            for i in range(n):
                through[i] = 0.5 * sum(
                    abs(potentials[i] - potentials[j]) for j in graph.adjacency[i]
                )
            through[s] = through[t] = 1.0
            totals += through
    return list(totals / (n * (n - 1) / 2.0))


def oracle_brandes_vertex(graph: Graph) -> list[Fraction]:
    """Brandes dependency accumulation in exact rationals, one Fraction per edge step."""
    scores = [Fraction(0)] * graph.n
    for source in range(graph.n):
        order, sigma, preds = shortest_path_dag(graph, source)
        delta = [Fraction(0)] * graph.n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            if w != source:
                scores[w] += delta[w]
    return [s / 2 for s in scores]


def oracle_brandes_edge(graph: Graph) -> dict[tuple[int, int], Fraction]:
    """Edge form of `oracle_brandes_vertex`: each edge's share of every dependency."""
    values = {edge: Fraction(0) for edge in graph.edges}
    for source in range(graph.n):
        order, sigma, preds = shortest_path_dag(graph, source)
        delta = [Fraction(0)] * graph.n
        for w in reversed(order):
            for v in preds[w]:
                contribution = Fraction(sigma[v], sigma[w]) * (1 + delta[w])
                values[(v, w) if v < w else (w, v)] += contribution
                delta[v] += contribution
    return {e: s / 2 for e, s in values.items()}


def shortest_path_dag(graph: Graph, source: int):
    """BFS order, shortest-path counts and predecessor lists from one source."""
    sigma = [0] * graph.n
    dist = [-1] * graph.n
    preds: list[list[int]] = [[] for _ in range(graph.n)]
    sigma[source] = 1
    dist[source] = 0
    order = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in graph.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
            if dist[w] == dist[u] + 1:
                sigma[w] += sigma[u]
                preds[w].append(u)
    return order, sigma, preds


def oracle_current_flow_pairs(graph: Graph) -> list[float]:
    """Current-flow betweenness by one pass per source-sink pair over the grounded inverse.

    O(n^2) pairs, each an O(n^2) dense step: the throughput of every vertex
    is half the absolute current over its incident edges, and the two
    endpoints count as one.
    """
    import numpy as np

    n = graph.n
    adjacency = np.zeros((n, n))
    for u, v in graph.edges:
        adjacency[u, v] = adjacency[v, u] = 1.0
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    inverse = np.zeros((n, n))
    inverse[:-1, :-1] = np.linalg.inv(laplacian[:-1, :-1])
    totals = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            potentials = inverse[:, s] - inverse[:, t]
            diffs = np.abs(potentials[:, None] - potentials[None, :]) * adjacency
            throughput = 0.5 * diffs.sum(axis=1)
            throughput[s] = 1.0
            throughput[t] = 1.0
            totals += throughput
    return list(totals / (n * (n - 1) / 2.0))
