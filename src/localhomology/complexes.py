"""Abstract simplicial complexes and their Alexandrov-topology operators.

A complex is stored by its maximal simplices over interned integer vertex
ids; every other face is implicit and enumerated on demand, which a complex
that may have more than `MAX_FACES` faces refuses up front. The integer
order of the interned ids is the fixed total vertex order used everywhere
for orientation signs, so results are reproducible across runs.

Open sets in the Alexandrov topology are unions of stars; closed sets are
exactly the subcomplexes. The operators star, closure, link and frontier
all act on arbitrary subsets of faces and return `SimplexSet` values bound
to their host complex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import (
    MalformedInputError,
    MalformedSimplexError,
    PreconditionError,
    UnknownSimplexError,
)

Simplex = tuple[int, ...]

# Faces are enumerated on demand; a complex whose maximal simplices could
# have more faces than this, counted as the sum of 2^|m| - 1, is refused.
MAX_FACES = 2**22


def _label_sort_key(label):
    # Stable order for labels of mixed type within one input simplex.
    return (label.__class__.__name__, label if isinstance(label, (int, float, str)) else repr(label))


def intern_labels(
    groups: Iterable[Iterable[Hashable]], error: type[MalformedInputError]
) -> tuple[tuple[Hashable, ...], list[tuple[int, ...]]]:
    """Labels by dense id and each group as its ids, interning in encounter order.

    Labels first seen in the same group are interned in sorted label order,
    and equal labels share an id. An unhashable or unorderable label raises `error`.
    """
    intern: dict[Hashable, int] = {}
    ids = []
    for group in groups:
        group = list(group)
        try:
            for label in sorted(group, key=_label_sort_key):
                intern.setdefault(label, len(intern))
        except TypeError as exc:
            raise error(f"unhashable or unorderable labels in {group!r}") from exc
        ids.append(tuple(intern[label] for label in group))
    return tuple(intern), ids


def facets_with_signs(simplex: Simplex) -> list[tuple[int, Simplex]]:
    """Codimension-one faces with their orientation signs.

    Dropping the vertex at position i contributes the sign (-1)^i; vertex
    order within a simplex is always the ascending interned order.
    """
    out = []
    for i in range(len(simplex)):
        face = simplex[:i] + simplex[i + 1:]
        if face:
            out.append((-1 if i % 2 else 1, face))
    return out


class SimplicialComplex:
    """Locally finite abstract simplicial complex stored by maximal simplices.

    Instances are immutable after construction. The face, cofacet and
    per-vertex caches populate lazily with values never changed afterwards,
    so concurrent readers are safe: a racing recomputation produces an
    identical value.
    """

    __slots__ = (
        "maximal", "labels", "dim", "_face_bound", "_faces_by_dim", "_cofacets", "_face_set",
        "_containing",
    )

    def __init__(self, maximal: frozenset[Simplex], labels: tuple[Hashable, ...]):
        # Unchecked precondition: maximal holds ascending id tuples forming an
        # antichain, and labels[v], distinct and hashable, names id v. Both
        # from_maximal and flag_complex establish it.
        self.maximal = maximal
        self.labels = labels
        self.dim = max((len(s) - 1 for s in maximal), default=-1)
        self._face_bound = sum((1 << len(s)) - 1 for s in maximal)
        self._faces_by_dim: dict[int, tuple[Simplex, ...]] = {}
        self._cofacets: dict[Simplex, tuple[Simplex, ...]] | None = None
        self._face_set: frozenset[Simplex] | None = None
        self._containing: dict[int, list[frozenset[int]]] | None = None

    @classmethod
    def from_maximal(cls, simplices: Iterable[Sequence[Hashable]]) -> "SimplicialComplex":
        """Build a complex from vertex-label lists.

        Labels are interned to dense integer ids in encounter order; labels
        first seen inside the same simplex are interned in sorted label
        order. Inputs that are faces of other inputs are dropped, so the
        stored maximal set is an antichain.
        """
        labels, groups = intern_labels(simplices, MalformedSimplexError)
        canonical: set[Simplex] = set()
        for group in groups:
            if not group:
                raise MalformedSimplexError("empty simplex")
            if len(set(group)) != len(group):
                named = [labels[v] for v in group]
                raise MalformedSimplexError(f"repeated vertex in simplex {named!r}")
            canonical.add(tuple(sorted(group)))
        # A proper coface of s contains every vertex of s, so it suffices to
        # look among the inputs containing s's rarest vertex.
        containing = _index_by_vertex(canonical)
        survivors: set[Simplex] = set()
        for s in canonical:
            rarest = min(s, key=lambda v: len(containing[v]))
            if not any(len(t) > len(s) and t.issuperset(s) for t in containing[rarest]):
                survivors.add(s)
        return cls(frozenset(survivors), labels)

    # -- basic queries ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def faces(self, k: int) -> tuple[Simplex, ...]:
        """All k-dimensional faces, each once, in lexicographic order."""
        if k < 0:
            raise ValueError("dimension must be non-negative")
        if k > self.dim:
            return ()
        cached = self._faces_by_dim.get(k)
        if cached is None:
            if self._face_bound > MAX_FACES:
                raise PreconditionError(
                    f"complex may have up to {self._face_bound} faces (the sum of 2^|m| - 1 "
                    f"over its maximal simplices m), above the limit of {MAX_FACES}"
                )
            found = set()
            for m in self.maximal:
                if len(m) >= k + 1:
                    found.update(combinations(m, k + 1))
            cached = tuple(sorted(found))
            self._faces_by_dim[k] = cached
        return cached

    def all_faces(self) -> Iterator[Simplex]:
        for k in range(self.dim + 1):
            yield from self.faces(k)

    def __iter__(self) -> Iterator[Simplex]:
        return self.all_faces()

    def __len__(self) -> int:
        return sum(len(self.faces(k)) for k in range(self.dim + 1))

    def __contains__(self, simplex) -> bool:
        # Only the maximal simplices containing the rarest vertex can contain
        # the simplex; its faces are never enumerated.
        if not isinstance(simplex, tuple) or not simplex:
            return False
        if self._containing is None:
            self._containing = _index_by_vertex(self.maximal)
        s = frozenset(simplex)
        candidates = min((self._containing.get(v, ()) for v in s), key=len)
        return any(s <= m for m in candidates)

    def simplex_with_labels(self, labels: Iterable[Hashable]) -> Simplex:
        """Canonical simplex for a collection of original vertex labels."""
        index = {label: i for i, label in enumerate(self.labels)}
        try:
            simplex = tuple(sorted(index[label] for label in labels))
        except KeyError as exc:
            raise UnknownSimplexError(f"unknown vertex label {exc.args[0]!r}") from exc
        if simplex not in self:
            raise UnknownSimplexError(f"{simplex} is not a face of the complex")
        return simplex

    def labels_of(self, simplex: Simplex) -> tuple[Hashable, ...]:
        return tuple(self.labels[v] for v in simplex)

    def cofacets(self, simplex: Simplex) -> tuple[Simplex, ...]:
        """Faces one dimension up that contain the given simplex, in lexicographic order."""
        return self._cofacet_index().get(simplex, ())

    def _cofacet_index(self) -> dict[Simplex, tuple[Simplex, ...]]:
        """Every face mapped to all of its cofacets; built in full, then stored."""
        if self._cofacets is None:
            index: dict[Simplex, list[Simplex]] = {}
            # Faces come by ascending dimension, so each facet has its entry first.
            for up in self.all_faces():
                index[up] = []
                if len(up) > 1:
                    for i in range(len(up)):
                        index[up[:i] + up[i + 1:]].append(up)
            self._cofacets = {s: tuple(ups) for s, ups in index.items()}
        return self._cofacets

    # -- simplex sets and topology operators ------------------------------

    def simplex_set(self, members: Iterable[Simplex]) -> "SimplexSet":
        """The members as a set of faces; each must be a face in ascending vertex order.

        Membership is answered from the per-vertex index, so validation never
        enumerates the faces of the complex.
        """
        mem = frozenset(members)
        for s in mem:
            if s not in self or any(a >= b for a, b in zip(s, s[1:])):
                raise UnknownSimplexError(f"{s} is not a face of the complex")
        return SimplexSet(self, mem)

    def full_set(self) -> "SimplexSet":
        return SimplexSet(self, self._all_faces_set())

    def empty_set(self) -> "SimplexSet":
        return SimplexSet(self, frozenset())

    def _all_faces_set(self) -> frozenset[Simplex]:
        if self._face_set is None:
            self._face_set = frozenset(self.all_faces())
        return self._face_set

    def _coerce(self, subset) -> frozenset[Simplex]:
        if isinstance(subset, SimplexSet):
            if subset.complex is not self:
                raise ValueError("simplex set belongs to a different complex")
            return subset.members
        return self.simplex_set(subset).members

    def star(self, subset) -> "SimplexSet":
        """Smallest open set containing the subset: the subset saturated under cofacets."""
        members = self._coerce(subset)
        # The star of nothing is empty and needs no index.
        return SimplexSet(self, members and _saturate(members, self._cofacet_index().__getitem__))

    def closure(self, subset) -> "SimplexSet":
        """Smallest closed set containing the subset (a subcomplex).

        Two exact routes, chosen by the size of the input A against |X|:

        - A is more than half of X: one scan of X minus A finds the seeds,
          the faces with a cofacet in A. A face g of cl A outside A lies
          below some a in A, and on a chain of cofacets from g up to a the
          face just before the first one in A is a seed; so cl A = A ∪
          cl(seeds), which is A itself when there are no seeds (A closed).
        - Otherwise: saturate A under facets, expanding each face of cl A
          once. Cost O(|cl A| * (dim X + 1)).
        """
        members = self._coerce(subset)
        face_set = self._all_faces_set()
        if 2 * len(members) > len(face_set):
            index = self._cofacet_index()
            seeds = [f for f in face_set - members if not members.isdisjoint(index[f])]
            return SimplexSet(self, members.union(_saturate(seeds, _facets)) if seeds else members)
        return SimplexSet(self, _saturate(members, _facets))

    def link(self, subset) -> "SimplexSet":
        """cl(star A) minus (star A union cl A)."""
        st = self.star(subset)
        cl_st = self.closure(st)
        cl = self.closure(subset)
        return SimplexSet(self, cl_st.members - (st.members | cl.members))

    def frontier(self, subset) -> "SimplexSet":
        """cl A intersected with cl(X minus A)."""
        members = self._coerce(subset)
        cl = self.closure(SimplexSet(self, members))
        cl_comp = self.closure(SimplexSet(self, self._all_faces_set() - members))
        return SimplexSet(self, cl.members & cl_comp.members)

    def is_open(self, subset) -> bool:
        members = self._coerce(subset)
        return self.star(SimplexSet(self, members)).members == members

    def is_closed(self, subset) -> bool:
        members = self._coerce(subset)
        return self.closure(SimplexSet(self, members)).members == members

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(n_vertices={self.n_vertices}, "
            f"dim={self.dim}, maximal={len(self.maximal)})"
        )


def _facets(simplex: Simplex) -> Iterable[Simplex]:
    return combinations(simplex, len(simplex) - 1) if len(simplex) > 1 else ()


def _saturate(members: Iterable[Simplex], neighbours) -> frozenset[Simplex]:
    """The members and all faces reached from them by `neighbours` steps, each expanded once."""
    out = set(members)
    todo = list(out)
    for s in todo:  # grows as new faces are reached
        for t in neighbours(s):
            if t not in out:
                out.add(t)
                todo.append(t)
    return frozenset(out)


def _index_by_vertex(simplices: Iterable[Simplex]) -> dict[int, list[frozenset[int]]]:
    """Map each vertex to the simplices, as vertex sets, that contain it."""
    containing: dict[int, list[frozenset[int]]] = {}
    for t in simplices:
        t_set = frozenset(t)
        for v in t:
            containing.setdefault(v, []).append(t_set)
    return containing


@dataclass(frozen=True)
class SimplexSet:
    """A subset of the faces of a complex; its topology operators live on the complex."""

    complex: SimplicialComplex = field(repr=False)
    members: frozenset[Simplex]

    def __iter__(self) -> Iterator[Simplex]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, simplex) -> bool:
        return simplex in self.members

    def _check_host(self, other: "SimplexSet") -> None:
        if self.complex is not other.complex:
            raise ValueError("simplex sets belong to different complexes")

    def __or__(self, other: "SimplexSet") -> "SimplexSet":
        self._check_host(other)
        return SimplexSet(self.complex, self.members | other.members)

    def __and__(self, other: "SimplexSet") -> "SimplexSet":
        self._check_host(other)
        return SimplexSet(self.complex, self.members & other.members)

    def complement(self) -> "SimplexSet":
        return SimplexSet(self.complex, self.complex._all_faces_set() - self.members)

    def vertex_set(self) -> frozenset[int]:
        out: set[int] = set()
        for s in self.members:
            out.update(s)
        return frozenset(out)

    def by_dimension(self) -> dict[int, tuple[Simplex, ...]]:
        """Members by dimension, each in lexicographic order; empty dimensions are left out."""
        levels: list[list[Simplex]] = [[] for _ in range(self.complex.dim + 1)]
        for s in self.members:
            levels[len(s) - 1].append(s)
        return {k: tuple(sorted(level)) for k, level in enumerate(levels) if level}

    def connected_components(self) -> int:
        """Components of the face-inclusion relation restricted to the set."""
        members = sorted(self.members)
        parent = list(range(len(members)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for i, s in enumerate(members):
            s_set = set(s)
            for j in range(i + 1, len(members)):
                t_set = set(members[j])
                if s_set <= t_set or t_set <= s_set:
                    union(i, j)
        return len({find(i) for i in range(len(members))})


# -- JSON interchange ------------------------------------------------------


def complex_to_json_dict(complex: SimplicialComplex) -> dict:
    """Canonical JSON form: interned integer ids plus the id-to-label map."""
    return {
        "maximal_simplices": [list(s) for s in sorted(complex.maximal)],
        "labels": list(complex.labels),
    }


def complex_from_json_dict(data: dict) -> SimplicialComplex:
    if not isinstance(data, dict) or "maximal_simplices" not in data:
        raise MalformedInputError("expected an object with a 'maximal_simplices' key")
    maximal = data["maximal_simplices"]
    if not isinstance(maximal, list) or not all(isinstance(s, list) for s in maximal):
        raise MalformedInputError("'maximal_simplices' must be a list of vertex lists")
    if "labels" in data:
        labels = data["labels"]
        if not isinstance(labels, list):
            raise MalformedInputError("'labels' must be a list")
        for v in chain.from_iterable(maximal):
            if type(v) is not int or not 0 <= v < len(labels):  # type(True) is bool
                raise MalformedInputError(f"vertex id {v!r} is not an index into 'labels'")
        relabeled = [[labels[v] for v in s] for s in maximal]
        # Feeding each vertex as a singleton first pins the interned id of
        # labels[i] to i, so canonical files round-trip exactly.
        singletons = [[label] for label in labels]
        complex = SimplicialComplex.from_maximal(singletons + relabeled)
        if len(complex.labels) != len(labels):
            raise MalformedInputError("'labels' must be distinct")
        return complex
    return SimplicialComplex.from_maximal(maximal)


def load_complex(path) -> SimplicialComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"cannot read complex from {path}: {exc}") from exc
    return complex_from_json_dict(data)


def dump_complex(complex: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_json_dict(complex), fh, sort_keys=True)
        fh.write("\n")
