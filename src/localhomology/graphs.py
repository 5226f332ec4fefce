"""Simple undirected graphs, clique enumeration, and flag complexes."""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .complexes import SimplicialComplex, intern_labels
from .errors import MalformedInputError, UnknownVertexError


class Graph:
    """Simple undirected graph over dense vertex ids 0..n-1.

    `labels[v]` remembers the original label of vertex v when the graph was
    built from labeled input; generated graphs use identity labels.
    """

    __slots__ = ("n", "labels", "adjacency", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels: Sequence[Hashable] | None = None):
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        canonical: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise MalformedInputError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInputError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u > v:
                u, v = v, u
            canonical.add((u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.edges = tuple(sorted(canonical))
        self.adjacency = tuple(frozenset(s) for s in adj)
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise MalformedInputError("label list length must equal the vertex count")
        if labels is not None and len(intern_labels([self.labels], MalformedInputError)[0]) != n:
            raise MalformedInputError("vertex labels must be distinct")

    @classmethod
    def from_edge_list(cls, pairs: Iterable[Sequence[Hashable]], n: int | None = None) -> "Graph":
        """Build a graph from label pairs.

        Without an explicit vertex count the vertex set is exactly the
        labels appearing in edges, interned to dense ids in encounter order
        (within one pair, smaller label first). With `n` given, labels must
        already be integers in 0..n-1 and isolated vertices are kept.
        """
        pairs = [tuple(p) for p in pairs]
        for p in pairs:
            if len(p) != 2:
                raise MalformedInputError(f"edge {p!r} does not have two endpoints")
        if n is not None:
            for u, v in pairs:
                if not (isinstance(u, int) and isinstance(v, int)):
                    raise MalformedInputError("vertex ids must be integers when a count is declared")
            return cls(n, [(u, v) for u, v in pairs])
        labels, edges = intern_labels(pairs, MalformedInputError)
        return cls(len(labels), edges, labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self.adjacency[v]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise UnknownVertexError(f"vertex {v} not in graph with {self.n} vertices")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adjacency[u]

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        remap = {v: i for i, v in enumerate(keep)}
        kept_set = set(keep)
        edges = [
            (remap[u], remap[v]) for u, v in self.edges if u in kept_set and v in kept_set
        ]
        return Graph(len(keep), edges, labels=tuple(self.labels[v] for v in keep))

    def open_neighborhood(self, v: int) -> "Graph":
        """Subgraph induced by the neighbors of v; excludes v itself."""
        return self.induced_subgraph(self.neighbors(v))

    def clustering_coefficient(self, v: int) -> Fraction:
        """Edge density of the open neighborhood, exact; 0 when deg v < 2."""
        nbrs = self.neighbors(v)
        d = len(nbrs)
        if d < 2:
            return Fraction(0)
        hits = 0
        nbrs_sorted = sorted(nbrs)
        for i, u in enumerate(nbrs_sorted):
            for w in nbrs_sorted[i + 1:]:
                if w in self.adjacency[u]:
                    hits += 1
        return Fraction(hits, d * (d - 1) // 2)

    def connected_components(self) -> int:
        seen = [False] * self.n
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            stack = [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                for w in self.adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return count

    def is_connected(self) -> bool:
        return self.n == 0 or self.connected_components() == 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def maximal_cliques(graph: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques, Bron-Kerbosch with degeneracy ordering and pivoting.

    Isolated vertices yield singleton cliques. The result is sorted
    lexicographically, each clique an ascending vertex tuple.
    """
    adj = graph.adjacency
    # Degeneracy order: repeatedly remove a minimum-degree vertex.
    remaining_deg = {v: len(adj[v]) for v in range(graph.n)}
    order = []
    alive = set(range(graph.n))
    while alive:
        v = min(alive, key=lambda u: (remaining_deg[u], u))
        order.append(v)
        alive.remove(v)
        for w in adj[v]:
            if w in alive:
                remaining_deg[w] -= 1

    cliques: list[tuple[int, ...]] = []

    def expand(base: list[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            cliques.append(tuple(sorted(base)))
            return
        pivot = max(candidates | excluded, key=lambda u: (len(adj[u] & candidates), -u))
        for v in sorted(candidates - adj[pivot]):
            expand(base + [v], candidates & adj[v], excluded & adj[v])
            candidates.remove(v)
            excluded.add(v)

    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = {w for w in adj[v] if position[w] > position[v]}
        earlier = {w for w in adj[v] if position[w] < position[v]}
        expand([v], later, earlier)
    return sorted(cliques)


def flag_complex(graph: Graph) -> SimplicialComplex:
    """Complex whose faces are exactly the cliques of the graph.

    Vertex v of the graph is the 0-simplex (v,) of the complex, which carries
    the graph's distinct labels. The maximal cliques, isolated vertices
    included, are ascending id tuples forming an antichain, as it requires.
    """
    return SimplicialComplex(frozenset(maximal_cliques(graph)), graph.labels)


# -- edge-list files --------------------------------------------------------


def parse_label(token: str) -> Hashable:
    """An optional minus and then digits reads as an integer; any other token is a string label."""
    try:
        return int(token) if token.lstrip("-").isdigit() else token
    except ValueError:  # "--5", "²": digits int() cannot read
        return token


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    One `u v` pair per whitespace-separated line; `#` starts a comment; an
    optional leading `n=<count>` line declares the vertex count (and with it
    isolated vertices). Each token is read by `parse_label`.
    """
    n: int | None = None
    pairs = []
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if first_content and line.startswith("n="):
            try:
                n = int(line[2:])
            except ValueError as exc:
                raise MalformedInputError(f"line {lineno}: bad vertex count {line!r}") from exc
            if n < 0:
                raise MalformedInputError(f"line {lineno}: negative vertex count")
            first_content = False
            continue
        first_content = False
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedInputError(f"line {lineno}: expected 'u v', got {line!r}")
        pairs.append(tuple(parse_label(t) for t in tokens))
    return Graph.from_edge_list(pairs, n=n)


def read_edge_list(path) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read edge list from {path}: {exc}") from exc
    return parse_edge_list(text)


def format_edge_list(graph: Graph) -> str:
    """Render a graph in the edge-list format, with a vertex count header."""
    if graph.labels != tuple(range(graph.n)):
        lines = [f"{graph.labels[u]} {graph.labels[v]}" for u, v in graph.edges]
        return "\n".join(lines) + "\n"
    lines = [f"n={graph.n}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"
