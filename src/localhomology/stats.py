"""Correlation study harness: Pearson tables, edge aggregation, datasets.

The datasets are the bundled karate club network and three seeded random
graph families (Erdos-Renyi, Barabasi-Albert, planar grid), each built by
its own function.

Local Betti numbers stay exact integers through the whole pipeline and are
converted to floating point only at the statistics boundary. Correlation
cells with a zero-variance column are reported as undefined rather than
coerced to zero.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .analysis import profile_many
from .errors import PreconditionError, _require_count
from .graphs import Graph, flag_complex, parse_edge_list
from .invariants import (
    EdgeScores,
    VertexScores,
    _clique_counts,
    _path_scores,
    _require_connected,
    betweenness_edge,  # unused here; perfbench/tracing.py wraps this module name
    betweenness_vertex,
    clustering_scores,
    degree_centrality,
    closeness_centrality,
    maximal_clique_count,
    random_walk_betweenness,
)


def pearson(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Pearson correlation, or None when either argument has zero variance.

    Zero variance is tested exactly, as every value equal to the others: the
    centred sums of squares of a constant float column such as [0.1] * 3 are
    rounding noise, not zero, and would give a coefficient of 0.0. A spread
    so small that its sum of squares underflows to zero also gives None.
    A NaN or infinite value in either argument raises `PreconditionError`.
    """
    if len(x) != len(y):
        raise PreconditionError("vectors must have equal length")
    if len(x) < 2:
        raise PreconditionError("need at least two observations")
    import numpy as np  # here, not at module level: importing the package must not load numpy

    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise PreconditionError("values must be finite, not NaN or infinity")
    if xa.min() == xa.max() or ya.min() == ya.max():
        return None
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        return None
    return float((xc @ yc) / np.sqrt(sx * sy))


def edge_aggregate(scores: VertexScores, graph: Graph) -> EdgeScores:
    """Per-edge mean of the endpoint scores."""
    return EdgeScores(
        scores.name,
        {(u, v): (scores.values[u] + scores.values[v]) / 2.0 for u, v in graph.edges},
    )


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson coefficients of graph invariants against local Betti columns.

    Cells are keyed by (invariant name, homology degree k, neighborhood
    level m); a None cell means the correlation was undefined because one
    column had no variance. `invariants` and `notes` are read from the
    other fields, so a report narrowed by `dataclasses.replace` describes
    only what it keeps.
    """

    subject: str
    degrees: tuple[int, ...]
    levels: tuple[int, ...]
    cells: dict[tuple[str, int, int], Optional[float]]
    betti_columns: dict[tuple[int, int], tuple[int, ...]]
    invariant_values: dict[str, tuple[float, ...]]

    @property
    def invariants(self) -> tuple[str, ...]:
        return tuple(self.invariant_values)

    @property
    def notes(self) -> tuple[str, ...]:
        """Per degree, whether its level-0 and level-1 Betti columns coincide; none without both levels."""
        if not {0, 1} <= set(self.levels):
            return ()
        return tuple(
            f"beta_{k} columns at neighborhood levels 0 and 1 are "
            f"{'identical' if self.betti_columns[(k, 0)] == self.betti_columns[(k, 1)] else 'different'} "
            f"under the star-closure recurrence"
            for k in self.degrees
        )

    def cell(self, invariant: str, k: int, m: int) -> Optional[float]:
        return self.cells[(invariant, k, m)]

    def to_csv(self) -> str:
        lines = ["invariant,beta_k,N_m,subject,rho"]
        for name in self.invariants:
            for k in self.degrees:
                for m in self.levels:
                    rho = self.cells[(name, k, m)]
                    cell = "" if rho is None else f"{rho:.6f}"
                    lines.append(f"{name},{k},{m},{self.subject},{cell}")
        return "\n".join(lines) + "\n"

    def scatter_csv(self, invariant: str, k: int, m: int) -> str:
        xs = self.invariant_values[invariant]
        ys = self.betti_columns[(k, m)]
        lines = ["x,y"]
        lines.extend(f"{float(x):.10g},{float(y):.10g}" for x, y in zip(xs, ys))
        return "\n".join(lines) + "\n"


VERTEX_INVARIANTS = (
    degree_centrality,
    closeness_centrality,
    betweenness_vertex,
    random_walk_betweenness,
    maximal_clique_count,
    clustering_scores,
)


def correlation_table(
    graph: Graph,
    subject: str = "vertex",
    m_max: int = 2,
    k_max: int = 2,
) -> CorrelationReport:
    """Correlate invariants with local Betti numbers on the flag complex.

    For the vertex subject, each graph vertex is compared at its own
    0-simplex. For the edge subject, vertex invariants are aggregated by
    endpoint averaging and compared at the edge 1-simplices, and edge
    betweenness joins as a directly edge-valued row.

    Rows are computed once per call and never cached; each equals its
    function applied alone.
    """
    if subject not in ("vertex", "edge"):
        raise PreconditionError(f"unknown subject {subject!r}")
    _require_count(k_max, "largest homology degree", least=1)
    _require_count(m_max, "neighborhood level")
    # The closeness and random-walk rows need this; checked before any work.
    _require_connected(graph, "correlation table")
    complex = flag_complex(graph)
    # Rows that share work, by VERTEX_INVARIANTS name: one shortest-path pass,
    # and the maximal cliques the flag complex already holds.
    shared = _path_scores(graph, closeness=True, vertex=True, edge=subject == "edge")
    shared["maximal_clique_count"] = _clique_counts(graph.n, complex.maximal)
    vertex_rows = [shared[fn.__name__] if fn.__name__ in shared else fn(graph) for fn in VERTEX_INVARIANTS]
    if subject == "vertex":
        seeds = [(v,) for v in range(graph.n)]
        row_values = {s.name: tuple(s.values) for s in vertex_rows}
    else:
        seeds = list(graph.edges)
        edge_rows = [edge_aggregate(s, graph) for s in vertex_rows] + [shared["betweenness_edge"]]
        row_values = {s.name: tuple(s.values[e] for e in seeds) for s in edge_rows}

    # Both seed lists above are already in lexicographic order, which is the
    # order profile_many returns; the score rows rely on that alignment.
    profiles = profile_many(complex, seeds, m_max=m_max)
    degrees = tuple(range(1, k_max + 1))
    levels = tuple(range(m_max + 1))
    betti_columns: dict[tuple[int, int], tuple[int, ...]] = {}
    for k in degrees:
        for m in levels:
            betti_columns[(k, m)] = tuple(
                p.betti_by_level[m][k] if k < len(p.betti_by_level[m]) else 0
                for p in profiles
            )

    cells: dict[tuple[str, int, int], Optional[float]] = {}
    for name in row_values:
        for k in degrees:
            for m in levels:
                cells[(name, k, m)] = pearson(
                    row_values[name], [float(b) for b in betti_columns[(k, m)]]
                )

    return CorrelationReport(
        subject=subject,
        degrees=degrees,
        levels=levels,
        cells=cells,
        betti_columns=betti_columns,
        invariant_values=row_values,
    )


# -- datasets ---------------------------------------------------------------


def karate_edge_list() -> str:
    """The bundled karate club edge-list file, comment header included."""
    return resources.files("localhomology.data").joinpath("karate_edges.txt").read_text()


def karate_graph() -> Graph:
    """The bundled 34-vertex, 78-edge karate club network."""
    return parse_edge_list(karate_edge_list())


def _check_seed(seed: int) -> None:
    if type(seed) is not int:  # type(True) is bool
        raise PreconditionError(f"seed must be an int, not {seed!r}")


def erdos_renyi_graph(n: int, edges: int, seed: int) -> Graph:
    """Connected uniform random graph with exactly the requested number of edges."""
    if type(n) is not int or type(edges) is not int or n < 0 or edges < 0:
        raise PreconditionError(f"vertex and edge counts must be non-negative ints, not {n!r} and {edges!r}")
    _check_seed(seed)
    possible = n * (n - 1) // 2
    if edges > possible:
        raise PreconditionError(f"cannot place {edges} edges on {n} vertices")
    for attempt in range(100):
        rng = random.Random(seed * 1_000_003 + attempt)
        # sample() reads only the population's length and indices, so sampling
        # pair indices picks the same pairs as sampling the list of all pairs.
        chosen = [_pair_at(k, n, possible) for k in rng.sample(range(possible), edges)]
        graph = Graph(n, chosen)
        if graph.is_connected():
            return graph
    raise PreconditionError(
        f"no connected sample with n={n}, edges={edges} after 100 attempts"
    )


def _pair_at(k: int, n: int, possible: int) -> tuple[int, int]:
    """The k-th pair (u, v), u < v, of n vertices in lexicographic order.

    Row u holds the n - 1 - u pairs that start at u, so counted back from
    the last pair the rows hold 1, 2, 3, ... pairs and the row of k follows
    from a triangular-number root, which `isqrt` takes exactly.
    """
    back = possible - 1 - k
    u = n - 2 - (math.isqrt(8 * back + 1) - 1) // 2
    return u, k - u * (2 * n - u - 1) // 2 + u + 1


def barabasi_albert_graph(n: int, attach: int, seed: int) -> Graph:
    """Preferential attachment: each arriving vertex brings `attach` edges."""
    if type(n) is not int or type(attach) is not int or not 1 <= attach < n:
        raise PreconditionError(f"counts must be ints with 1 <= attach < n, not attach={attach!r}, n={n!r}")
    _check_seed(seed)
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    targets = list(range(attach))
    repeated: list[int] = []
    for v in range(attach, n):
        edges.extend((v, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([v] * attach)
        chosen: set[int] = set()
        while len(chosen) < attach:
            chosen.add(rng.choice(repeated))
        targets = sorted(chosen)
    return Graph(n, edges)


def planar_grid_graph(width: int, height: int, diag_prob: float, seed: int) -> Graph:
    """Rectangular grid with a random diagonal in some unit faces.

    At most one diagonal is added per face, so the graph stays planar by
    construction.
    """
    if type(width) is not int or type(height) is not int or width < 2 or height < 2:
        raise PreconditionError(f"grid sides must be ints of at least 2, not {width!r} by {height!r}")
    if not isinstance(diag_prob, numbers.Real) or isinstance(diag_prob, bool) or not 0 <= diag_prob <= 1:
        raise PreconditionError(f"diagonal probability must be a real number in [0, 1], not {diag_prob!r}")
    _check_seed(seed)
    rng = random.Random(seed)

    def vid(i: int, j: int) -> int:
        return i * height + j

    edges = []
    for i in range(width):
        for j in range(height):
            if i + 1 < width:
                edges.append((vid(i, j), vid(i + 1, j)))
            if j + 1 < height:
                edges.append((vid(i, j), vid(i, j + 1)))
    for i in range(width - 1):
        for j in range(height - 1):
            if rng.random() < diag_prob:
                if rng.random() < 0.5:
                    edges.append((vid(i, j), vid(i + 1, j + 1)))
                else:
                    edges.append((vid(i + 1, j), vid(i, j + 1)))
    return Graph(width * height, edges)
