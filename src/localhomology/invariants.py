"""Vertex and edge invariants used in the correlation study.

Conventions are fixed for determinism: closeness is (n-1) over the distance
sum, betweenness counts each unordered endpoint pair once and excludes the
endpoints themselves, and random-walk betweenness is the current-flow
betweenness that `random_walk_betweenness` defines. Pearson correlation is
invariant under positive affine rescaling, so these choices do not affect
any correlation table.

Closeness and shortest-path betweenness, vertex and edge, come from one
breadth-first pass per source, `_shortest_paths` (Brandes, "On variants of
shortest-path betweenness centrality and their generic computation", Social
Networks 2008). It sums the distances and, asked for dependencies, runs
Brandes' accumulation kept exact in integers (Brandes, "A faster algorithm
for betweenness centrality", J. Math. Sociol. 2001). Per source, with P the
lcm of the shortest-path counts sigma, it sums c[w] = P / sigma[w] + acc[w]
into acc[v] for each predecessor v of w, so
P * delta[v] = sigma[v] * acc[v], and edge (v, w) carries
sigma[v] * c[w] / P. The totals are kept over one common denominator D,
the lcm of every source's P, so a source adds its terms times D / P
(`_rescale`). Each score is one exact rational, rounded once to a float on
output by `int` division.
`correlation_table` takes all its shortest-path rows from one such pass.

Random-walk betweenness takes every pair's edge currents from one grounded
Laplacian inverse C (Brandes & Fleischer, "Centrality measures based on
current flow", STACS 2005). For the pair (s, t), edge (u, v) carries
b_s - b_t with b = C[u] - C[v], so its absolute current summed over all
pairs is b sorted ascending, dotted with the weights 2i - n + 1: O(m n log n)
in all. At a source or sink the potential is extremal and that sum counts
1/2 where the convention counts 1, so each vertex also adds (n - 1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def closeness_centrality(graph: Graph) -> VertexScores:
    return _path_scores(graph, closeness=True)["closeness_centrality"]


def betweenness_vertex(graph: Graph) -> VertexScores:
    """Brandes shortest-path betweenness, endpoints excluded, unordered pairs.

    Each score is exact until it is output as a float; the module docstring
    gives the integer accumulation.
    """
    return _path_scores(graph, vertex=True)["betweenness_vertex"]


def betweenness_edge(graph: Graph) -> EdgeScores:
    """Edge form of `betweenness_vertex`, over the same common denominator."""
    return _path_scores(graph, edge=True)["betweenness_edge"]


def _path_scores(graph: Graph, *, closeness=False, vertex=False, edge=False) -> dict:
    """The asked-for shortest-path scores by function name, from one `_shortest_paths` call."""
    if closeness and graph.n <= 1:
        raise PreconditionError("closeness centrality needs at least two vertices")
    if closeness and not graph.is_connected():
        raise DisconnectedGraphError("closeness centrality requires a connected graph")
    sums, vertex_totals, edge_totals, common = _shortest_paths(graph, vertex or edge, edge)
    scores = {}
    if closeness:
        scores["closeness_centrality"] = VertexScores("closeness_centrality", tuple((graph.n - 1) / s for s in sums))
    if vertex:
        scores["betweenness_vertex"] = VertexScores("betweenness_vertex", tuple(t / (2 * common) for t in vertex_totals))
    if edge:
        values = {e: t / (2 * common) for e, t in zip(graph.edges, edge_totals)}
        scores["betweenness_edge"] = EdgeScores("betweenness_edge", values)
    return scores


def _shortest_paths(graph: Graph, dependencies: bool, edges: bool):
    """Per-source distance sums; with `dependencies` also the vertex totals,
    with `edges` the edge totals (else empty), and their denominator D."""
    n = graph.n
    adjacency = graph.adjacency
    sums = [0] * n
    vertex_totals = [0] * n
    edge_totals = [0] * len(graph.edges) if edges else []
    slot: list[dict[int, int]] = [{} for _ in range(n)]  # slot[w][v]: position of edge {v, w}
    for i, (u, v) in enumerate(graph.edges if edges else ()):
        slot[u][v] = slot[v][u] = i
    common = 1
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        order = [source]  # the queue, read while it grows
        if not dependencies:
            for u in order:
                du = dist[u] + 1
                for w in adjacency[u]:
                    if dist[w] < 0:
                        dist[w] = du
                        order.append(w)
            sums[source] = sum(dist) + n - len(order)  # each unreached vertex holds -1
            continue
        sigma = [0] * n
        sigma[source] = 1
        preds: list = [None] * n
        for u in order:
            du = dist[u] + 1
            su = sigma[u]
            for w in adjacency[u]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = du
                    order.append(w)
                    sigma[w] = su
                    preds[w] = [u]
                elif dw == du:
                    sigma[w] += su
                    preds[w].append(u)
        sums[source] = sum(dist) + n - len(order)
        scale = lcm(*(set(sigma) - {0}))  # 0 marks an unreached vertex
        common, factor = _rescale(common, scale, vertex_totals, edge_totals)
        acc = [0] * n
        for w in order[:0:-1]:  # farthest first; the source has no predecessor and no score
            a = acc[w]
            vertex_totals[w] += sigma[w] * a * factor
            c = scale // sigma[w] + a
            for v in preds[w]:
                acc[v] += c
            if edges:
                c *= factor
                for v in preds[w]:
                    edge_totals[slot[w][v]] += sigma[v] * c
    return sums, vertex_totals, edge_totals, common


def _rescale(common: int, scale: int, *totals: list[int]) -> tuple[int, int]:
    """Bring each totals list over lcm(common, scale) in place; that lcm and its ratio to scale."""
    grown = lcm(common, scale)
    if grown != common:
        up = grown // common
        for values in totals:
            values[:] = [t * up for t in values]
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
    return _clique_counts(graph.n, maximal_cliques(graph))


def _clique_counts(n: int, cliques) -> VertexScores:
    counts = [0] * n
    for clique in cliques:
        for v in clique:
            counts[v] += 1
    return VertexScores("maximal_cliques", tuple(float(c) for c in counts))


def clustering_scores(graph: Graph) -> VertexScores:
    return VertexScores(
        "clustering_coefficient",
        tuple(float(graph.clustering_coefficient(v)) for v in range(graph.n)),
    )
