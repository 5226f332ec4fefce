"""Simple undirected graphs, clique enumeration, and flag complexes."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .complexes import SimplicialComplex, intern_labels
from .errors import MalformedInputError, PreconditionError, UnknownVertexError


class Graph:
    """Simple undirected graph over dense vertex ids 0..n-1.

    `labels[v]` remembers the original label of vertex v when the graph was
    built from labeled input; generated graphs use identity labels.
    """

    __slots__ = ("n", "labels", "adjacency", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels: Sequence[Hashable] | None = None):
        if not (type(n) is int and n >= 0):  # type(True) is bool
            raise MalformedInputError(f"vertex count {n!r} is not a non-negative integer")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        canonical: set[tuple[int, int]] = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise MalformedInputError(f"edge {edge!r} is not a pair of vertex ids") from None
            if not (type(u) is int and type(v) is int):
                raise MalformedInputError(f"edge ({u!r}, {v!r}): vertex ids must be integers")
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInputError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise MalformedInputError(f"loop at vertex {u} is not allowed")
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
        (within one pair, smaller label first). With `n` given, the pairs go
        to `Graph(n, pairs)` as they are: each label must already be an `int`
        id in 0..n-1 (not a bool or a float), and isolated vertices are kept.
        """
        if n is not None:
            return cls(n, pairs)
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
        if not (type(v) is int and 0 <= v < self.n):
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

    def clustering_coefficient(self, v: int) -> Fraction:
        """Edge density of the open neighborhood, exact; 0 when deg v < 2."""
        nbrs = self.neighbors(v)
        d = len(nbrs)
        if d < 2:
            return Fraction(0)
        # Each edge among the neighbours is seen from both of its ends.
        hits = sum(len(self.adjacency[u] & nbrs) for u in nbrs) // 2
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
    """All maximal cliques, by one pivoted Bron-Kerbosch call on every vertex.

    The pivot maximizes its neighbors among the candidates, which makes the
    enumeration worst-case optimal, O(3^(n/3)) (Tomita, Tanaka & Takahashi,
    TCS 2006). No vertex order is imposed: the order of traversal never
    changes the set of cliques, and the list is sorted at the end.

    Isolated vertices yield singleton cliques, and a graph with no vertex
    has no clique. The result is sorted
    lexicographically, each clique an ascending vertex tuple.
    """
    adj = graph.adjacency
    cliques: list[tuple[int, ...]] = []

    def expand(base: list[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            cliques.append(tuple(sorted(base)))
            return
        pivot = max(candidates | excluded, key=lambda u: len(adj[u] & candidates))
        for v in candidates - adj[pivot]:
            expand(base + [v], candidates & adj[v], excluded & adj[v])
            candidates.remove(v)
            excluded.add(v)

    if graph.n:
        expand([], set(range(graph.n)), set())
    return sorted(cliques)


def flag_complex(graph: Graph) -> SimplicialComplex:
    """Complex whose faces are exactly the cliques of the graph.

    Vertex v of the graph is the 0-simplex (v,) of the complex, which carries
    the graph's distinct labels. The maximal cliques, isolated vertices
    included, are ascending id tuples forming an antichain, as it requires.
    """
    return SimplicialComplex(frozenset(maximal_cliques(graph)), graph.labels)


# -- edge-list files --------------------------------------------------------


_INTEGER = re.compile(r"-?[0-9]+")  # int() alone also reads "+2", "1_0", " 3" and "٣"


def parse_label(token: str) -> Hashable:
    """An optional minus and then ASCII digits reads as an integer; any other token is a string label."""
    return int(token) if _INTEGER.fullmatch(token) else token


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
            if not _INTEGER.fullmatch(line[2:]):
                raise MalformedInputError(f"line {lineno}: bad vertex count {line!r}")
            n = int(line[2:])
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
    """Render a graph in the edge-list format, with a vertex count header.

    A labeled graph is written as bare label pairs, which cannot carry an
    isolated vertex, so one raises `PreconditionError`. So does a label
    that `parse_edge_list` would not read back as itself: one whose text
    is empty, holds whitespace or `#`, starts with `n=`, or reads back by
    `parse_label` as another value or type (`"1"`, `1.5`, `True`). Edges go
    in the order that reads back id k before k + 1 (edge (u, v), u < v, with
    v; with u if v = u + 1 and u has no smaller neighbour), and a graph that
    no order reads back so, such as labels ("c", "a") on one edge, raises.
    """
    if graph.labels != tuple(range(graph.n)):
        for v, neighbors in enumerate(graph.adjacency):
            label = graph.labels[v]
            if not neighbors:
                raise PreconditionError(f"isolated vertex {label!r} needs an n= header and integer ids")
            text = str(label)
            back = parse_label(text)
            if (
                text.split() != [text]  # empty, or holding whitespace
                or "#" in text
                or text.startswith("n=")
                or type(back) is not type(label)
                or back != label
            ):
                raise PreconditionError(f"label {label!r} would not read back from an edge list")

        def place(edge: tuple[int, int]) -> tuple[int, int]:
            u, v = edge
            return (u, -1) if v == u + 1 and min(graph.adjacency[u]) > u else (v, u)

        pairs = [(graph.labels[u], graph.labels[v]) for u, v in sorted(graph.edges, key=place)]
        if intern_labels(pairs, MalformedInputError)[0] != graph.labels:
            raise PreconditionError("the edge list would read back with its vertices in another order")
        return "".join(f"{u} {v}\n" for u, v in pairs)
    lines = [f"n={graph.n}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"
