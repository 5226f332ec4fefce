"""Vertex and edge invariants used in the correlation study.

Conventions are fixed for determinism: closeness is (n-1) over the distance
sum, betweenness counts each unordered endpoint pair once and excludes the
endpoints themselves, and random-walk betweenness is the current-flow
betweenness that `random_walk_betweenness` defines. Pearson correlation is
invariant under positive affine rescaling, so these choices do not affect
any correlation table.

Shortest-path betweenness, vertex and edge, is Brandes' dependency
accumulation kept exact in integers (Brandes, "A faster algorithm for
betweenness centrality", J. Math. Sociol. 2001). Per source, with P the lcm
of the shortest-path counts sigma, `_brandes_pass` sums
c[w] = P / sigma[w] + acc[w] into acc[v] for each predecessor v of w, so
P * delta[v] = sigma[v] * acc[v], and edge (v, w) carries
sigma[v] * c[w] / P. The totals are kept over one common denominator D,
the lcm of every source's P, so a source adds its terms times D / P
(`_rescale`). Each score is one exact rational, a float only on output.

Random-walk betweenness takes every pair's edge currents from one grounded
Laplacian inverse C (Brandes & Fleischer, "Centrality measures based on
current flow", STACS 2005). For the pair (s, t), edge (u, v) carries
b_s - b_t with b = C[u] - C[v], so its absolute current summed over all
pairs is b sorted ascending, dotted with the weights 2i - n + 1: O(m n log n)
in all. At a source or sink the potential is extremal and that sum counts
1/2 where the convention counts 1, so each vertex also adds (n - 1)/2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DisconnectedGraphError, PreconditionError
from .graphs import Graph, maximal_cliques


@dataclass(frozen=True)
class VertexScores:
    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class EdgeScores:
    name: str
    values: dict[tuple[int, int], float]


def degree_centrality(graph: Graph) -> VertexScores:
    if graph.n <= 1:
        raise PreconditionError("degree centrality needs at least two vertices")
    scale = graph.n - 1
    return VertexScores(
        "degree_centrality",
        tuple(len(graph.adjacency[v]) / scale for v in range(graph.n)),
    )


def _bfs_distances(graph: Graph, source: int) -> list[int]:
    dist = [-1] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def closeness_centrality(graph: Graph) -> VertexScores:
    if graph.n <= 1:
        raise PreconditionError("closeness centrality needs at least two vertices")
    if not graph.is_connected():
        raise DisconnectedGraphError("closeness centrality requires a connected graph")
    values = []
    for v in range(graph.n):
        total = sum(_bfs_distances(graph, v))
        values.append((graph.n - 1) / total)
    return VertexScores("closeness_centrality", tuple(values))


def _brandes_pass(graph: Graph, source: int):
    """BFS order, path counts sigma, predecessors, the scale P and the integer
    dependencies acc from one source, as the module docstring defines them."""
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
    scale = lcm(*(sigma[w] for w in order))
    acc = [0] * graph.n
    for w in reversed(order):
        c = scale // sigma[w] + acc[w]
        for v in preds[w]:
            acc[v] += c
    return order, sigma, preds, scale, acc


def betweenness_vertex(graph: Graph) -> VertexScores:
    """Brandes shortest-path betweenness, endpoints excluded, unordered pairs.

    Each score is exact until it is output as a float; the module docstring
    gives the integer accumulation.
    """
    totals = [0] * graph.n
    common = 1
    for source in range(graph.n):
        order, sigma, _, scale, acc = _brandes_pass(graph, source)
        common, factor = _rescale(totals, common, scale)
        for w in order:
            if acc[w] and w != source:
                totals[w] += sigma[w] * acc[w] * factor
    return VertexScores("betweenness_vertex", tuple(float(Fraction(t, 2 * common)) for t in totals))


def betweenness_edge(graph: Graph) -> EdgeScores:
    """Edge form of `betweenness_vertex`, over the same common denominator."""
    edges = list(graph.edges)
    position = {edge: i for i, edge in enumerate(edges)}
    totals = [0] * len(edges)
    common = 1
    for source in range(graph.n):
        order, sigma, preds, scale, acc = _brandes_pass(graph, source)
        common, factor = _rescale(totals, common, scale)
        for w in order:
            c = (scale // sigma[w] + acc[w]) * factor
            for v in preds[w]:
                totals[position[(v, w) if v < w else (w, v)]] += sigma[v] * c
    return EdgeScores("betweenness_edge", {e: float(Fraction(t, 2 * common)) for e, t in zip(edges, totals)})


def _rescale(totals: list[int], common: int, scale: int) -> tuple[int, int]:
    """Bring totals over lcm(common, scale) in place; that lcm and its ratio to scale."""
    grown = lcm(common, scale)
    if grown != common:
        up = grown // common
        totals[:] = [t * up for t in totals]
    return grown, grown // scale


def random_walk_betweenness(graph: Graph) -> VertexScores:
    """Current-flow betweenness from a grounded-Laplacian inverse.

    For every source-sink pair a unit current is injected and extracted; the
    throughput of an interior vertex is half the absolute current over its
    incident edges, endpoints count as one, and scores are averaged over all
    unordered pairs. The module docstring gives the computation. A graph
    with fewer than two vertices raises `PreconditionError`, and a
    disconnected one `DisconnectedGraphError`.
    """
    n = graph.n
    if n <= 1:
        raise PreconditionError("random-walk betweenness needs at least two vertices")
    if not graph.is_connected():
        raise DisconnectedGraphError("random-walk betweenness requires a connected graph")
    import numpy as np  # here, not at module level: importing the package must not load numpy

    tails, heads = np.array(graph.edges).T
    laplacian = np.zeros((n, n))
    laplacian[tails, heads] = laplacian[heads, tails] = -1.0
    laplacian[np.diag_indices(n)] = -laplacian.sum(axis=1)
    # Ground the last vertex; potentials of the rest come from the inverse.
    inverse = np.zeros((n, n))
    inverse[:-1, :-1] = np.linalg.inv(laplacian[:-1, :-1])
    edge_sums = np.sort(inverse[tails] - inverse[heads], axis=1) @ (2.0 * np.arange(n) - n + 1)
    sums = np.zeros(n)
    np.add.at(sums, tails, edge_sums)
    np.add.at(sums, heads, edge_sums)
    # Half of sums plus (n-1)/2 for the endpoints, over n(n-1)/2 pairs.
    return VertexScores("random_walk_betweenness", tuple(((sums + n - 1) / (n * (n - 1))).tolist()))


def maximal_clique_count(graph: Graph) -> VertexScores:
    counts = [0] * graph.n
    for clique in maximal_cliques(graph):
        for v in clique:
            counts[v] += 1
    return VertexScores("maximal_cliques", tuple(float(c) for c in counts))


def clustering_scores(graph: Graph) -> VertexScores:
    return VertexScores(
        "clustering_coefficient",
        tuple(float(graph.clustering_coefficient(v)) for v in range(graph.n)),
    )
