"""Abstract simplicial complexes and their Alexandrov-topology operators.

A complex is stored by its maximal simplices over interned integer vertex
ids. The integer order of the interned ids is the fixed total vertex order
used everywhere for orientation signs, so results are reproducible across
runs.

Open sets in the Alexandrov topology are unions of stars; closed sets are
exactly the subcomplexes. The operators star, closure, link and frontier
all act on arbitrary subsets of faces and return `SimplexSet` values bound
to their host complex. They work on the face index, `_FaceIndex`, which
enumerates every face once, on first use, and which a complex that may
have more than `MAX_FACES` faces refuses up front. A set of faces is an
int mask over its face ids, a star an OR of ANDs of vertex masks, and a
closure an OR of cached per-face closure masks (the indexing of the
simplex tree, Boissonnat & Maria, Algorithmica 2014, and of Ripser,
Bauer, JACT 2021). `_mask_of` encodes a mask and `_ascending` decodes one.

Complexes, simplex sets and matrices are immutable after construction. The
only writes made later are these four caches, each with one possible value,
so concurrent readers are safe and a racing recomputation stores an equal
value:

- the face index, and the per-vertex index of maximal simplices that `in`
  reads, each built in full and then stored once;
- the face index's closure masks (`down`), which only gain entries;
- a set's closure, cached by `closure`;
- a matrix's solve pivots (`linalg`).
"""

from __future__ import annotations

import json
from itertools import accumulate, chain, combinations, count
from operator import add
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import (
    MalformedInputError,
    MalformedSimplexError,
    PreconditionError,
    UnknownSimplexError,
)

Simplex = tuple[int, ...]

# The face index enumerates every face; a complex whose maximal simplices
# could have more faces than this, counted as the sum of 2^|m| - 1, is refused.
MAX_FACES = 2**22


def _label_sort_key(label):
    # Stable order for labels of mixed type within one input simplex.
    return (label.__class__.__name__, label if isinstance(label, (int, float, str)) else repr(label))


def intern_labels(
    groups: Iterable[Iterable[Hashable]], error: type[MalformedInputError]
) -> tuple[tuple[Hashable, ...], list[tuple[int, ...]]]:
    """Labels by dense id and each group as its ids, interning in encounter order.

    Labels first seen in the same group are interned in sorted label order,
    and equal labels share an id. A group that is not iterable, or holds an
    unhashable or unorderable label, raises `error`, and so do two labels
    that are equal but of different types, such as `True` and `1`.
    """
    intern: dict[Hashable, int] = {}
    labels: list[Hashable] = []
    ids = []
    for group in groups:
        try:
            group = list(group)
            for label in sorted(group, key=_label_sort_key):
                i = intern.setdefault(label, len(labels))
                if i == len(labels):
                    labels.append(label)
                elif type(labels[i]) is not type(label):
                    raise error(f"labels {labels[i]!r} and {label!r} are equal but of different types")
        except TypeError as exc:
            raise error(f"{group!r} is not a group of hashable, orderable labels") from exc
        ids.append(tuple(intern[label] for label in group))
    return tuple(labels), ids


class SimplicialComplex:
    """Locally finite abstract simplicial complex stored by maximal simplices.

    Instances are immutable after construction and safe for concurrent
    reads; the module docstring lists the caches written later.
    """

    __slots__ = ("maximal", "labels", "dim", "_index", "_containing")

    def __init__(self, maximal: frozenset[Simplex], labels: tuple[Hashable, ...]):
        # Unchecked precondition: maximal holds ascending id tuples forming an
        # antichain, and labels[v], distinct and hashable, names id v. Both
        # from_maximal and flag_complex establish it.
        self.maximal = maximal
        self.labels = labels
        self.dim = max((len(s) - 1 for s in maximal), default=-1)
        self._index: _FaceIndex | None = None
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
        if type(k) is not int or k < 0:  # type(True) is bool
            raise ValueError(f"dimension must be non-negative and an int, not {k!r}")
        if k > self.dim:
            return ()
        index = self._face_index()
        return index.faces[index.starts[k]:index.starts[k + 1]]

    def all_faces(self) -> Iterator[Simplex]:
        return iter(self._face_index().faces)

    def __iter__(self) -> Iterator[Simplex]:
        return self.all_faces()

    def __len__(self) -> int:
        return len(self._face_index().faces)

    def __contains__(self, simplex) -> bool:
        """Whether the vertex set of a tuple of vertex ids, in any order, is a face.

        Only the maximal simplices containing the rarest vertex are tested
        and the face index is never built, so `in` works on a complex above
        `MAX_FACES`. The order is not checked: `(1, 0) in x` holds when
        `(0, 1) in x` does, while every call that takes a face wants the
        ascending `(0, 1)`. Anything but a nonempty tuple of hashable
        vertex ids is in no complex.
        """
        if not isinstance(simplex, tuple) or not simplex:
            return False
        if self._containing is None:
            self._containing = _index_by_vertex(self.maximal)
        try:
            s = frozenset(simplex)
        except TypeError:  # an unhashable vertex is not a vertex id
            return False
        candidates = min((self._containing.get(v, ()) for v in s), key=len)
        return any(s <= m for m in candidates)

    def simplex_with_labels(self, labels: Iterable[Hashable]) -> Simplex:
        """Canonical simplex for a collection of distinct original vertex labels."""
        index = {label: i for i, label in enumerate(self.labels)}
        labels = list(labels)
        ids = []
        for label in labels:
            try:
                ids.append(index[label])
            except (KeyError, TypeError) as exc:  # TypeError: an unhashable label
                raise UnknownSimplexError(f"unknown vertex label {label!r}") from exc
        if len(set(ids)) != len(ids):
            raise MalformedSimplexError(f"repeated vertex in simplex {labels!r}")
        simplex = tuple(sorted(ids))
        if simplex not in self:
            raise UnknownSimplexError(f"{simplex} is not a face of the complex")
        return simplex

    def cofacets(self, simplex: Simplex) -> tuple[Simplex, ...]:
        """Faces one dimension up that contain the given simplex, in lexicographic order."""
        i = self._face_id(simplex)
        if i is None or len(simplex) > self.dim:
            return ()
        index = self._face_index()
        # The cofacets are the star's faces in the id range of the next dimension.
        lo, hi = index.starts[len(simplex)], index.starts[len(simplex) + 1]
        ups = (index.star_mask(i) >> lo) & ((1 << (hi - lo)) - 1)
        return tuple(index.faces[lo + j] for j in _ascending(ups))

    def _face_id(self, simplex) -> int | None:
        """The id of a face given in ascending vertex order; None for anything else."""
        if not isinstance(simplex, tuple):
            return None
        try:
            return self._face_index().ids.get(simplex)
        except TypeError:  # an unhashable vertex
            return None

    def _face_index(self) -> "_FaceIndex":
        if self._index is None:
            self._index = _FaceIndex(self)
        return self._index

    # -- simplex sets and topology operators ------------------------------

    def simplex_set(self, members: Iterable[Simplex]) -> "SimplexSet":
        """The members as a set of faces; each must be a face in ascending vertex order.

        Each member is looked up in the face index, so a complex that may
        have more than `MAX_FACES` faces is refused, as by `star`.
        """
        return SimplexSet(self, members)

    def full_set(self) -> "SimplexSet":
        return SimplexSet._from_mask(self, self._face_index().full, open=True, closed=True)

    def empty_set(self) -> "SimplexSet":
        return self.full_set().complement()  # open and closed, as X is

    def _coerce(self, subset) -> "SimplexSet":
        if isinstance(subset, SimplexSet):
            if subset.complex is not self:
                raise ValueError("simplex set belongs to a different complex")
            return subset
        return SimplexSet(self, subset)

    def star(self, subset) -> "SimplexSet":
        """Smallest open set containing the subset: the OR of its members' stars.

        Members are taken lowest id first, and one already inside the star
        so far adds nothing and is skipped. A subset made open, such as a
        star, is returned itself.
        """
        a = self._coerce(subset)
        if a._open:
            return a
        index = self._face_index()
        rest = a._mask
        out = 0
        while rest:
            star = index.star_mask((rest & -rest).bit_length() - 1)
            out |= star
            rest &= ~star
        return SimplexSet._from_mask(self, out, open=True)

    def closure(self, subset) -> "SimplexSet":
        """Smallest closed set containing the subset (a subcomplex).

        The OR of the members' closure masks, taken highest id first; a
        member already inside the closure so far is skipped. A subset made
        closed, such as a closure, is returned itself; any other gets its
        closure computed once, cached on it, and returned again after.
        """
        a = self._coerce(subset)
        if a._closed:
            return a
        if a._closure is None:
            index = self._face_index()
            rest = a._mask
            out = 0
            while rest:
                down = index.down_mask(rest.bit_length() - 1)
                out |= down
                rest &= ~down
            a._closure = SimplexSet._from_mask(self, out, closed=True)
        return a._closure

    def link(self, subset) -> "SimplexSet":
        """cl(star A) minus (star A union cl A)."""
        a = self._coerce(subset)
        st = self.star(a)
        cl_st = self.closure(st)
        cl = self.closure(a)
        return SimplexSet._from_mask(self, cl_st._mask & ~(st._mask | cl._mask))

    def frontier(self, subset) -> "SimplexSet":
        """cl A intersected with cl(X minus A), a closed set.

        For A made open, its complement is made closed, so the closure of
        X minus A is itself and costs nothing.
        """
        a = self._coerce(subset)
        cl = self.closure(a)
        cl_comp = self.closure(a.complement())
        return SimplexSet._from_mask(self, cl._mask & cl_comp._mask, closed=True)

    def is_open(self, subset) -> bool:
        a = self._coerce(subset)
        return self.star(a)._mask == a._mask

    def is_closed(self, subset) -> bool:
        a = self._coerce(subset)
        return self.closure(a)._mask == a._mask

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(n_vertices={self.n_vertices}, "
            f"dim={self.dim}, maximal={len(self.maximal)})"
        )


class _FaceIndex:
    """Every face of a complex, enumerated and numbered once: its one face store.

    Building it is refused up front when the complex may have more than
    `MAX_FACES` faces. Ids run by dimension, then lexicographically, so the
    faces of dimension k hold the ids from starts[k] up to starts[k + 1],
    and every face's id is above its facets' ids. A set of faces is an int
    mask with bit i standing for face i. facets[i] holds the ids of face
    i's facets, the j-th dropping vertex j: the one boundary table, and the
    one place a face is cut into its facets. vertex_masks[v] marks the
    faces containing vertex v, so a face's star is the AND of its vertices'
    masks. `down` caches the closure mask of each face some closure
    reached: the face's bit OR its facets' closure masks.
    """

    __slots__ = ("faces", "ids", "facets", "starts", "vertex_masks", "full", "down")

    def __init__(self, complex: SimplicialComplex):
        bound = sum((1 << len(m)) - 1 for m in complex.maximal)
        if bound > MAX_FACES:
            raise PreconditionError(
                f"complex may have up to {bound} faces (the sum of 2^|m| - 1 "
                f"over its maximal simplices m), above the limit of {MAX_FACES}"
            )
        faces: list[Simplex] = []
        self.starts = [0]
        for k in range(complex.dim + 1):
            level = set()
            for m in complex.maximal:
                if len(m) > k:
                    level.update(combinations(m, k + 1))
            faces.extend(sorted(level))
            self.starts.append(len(faces))
        self.faces = tuple(faces)
        ids = self.ids = {s: i for i, s in enumerate(self.faces)}
        # combinations(s, k) lists a k-face's facets dropping its last vertex
        # first, so reversed they drop vertex j at place j.
        facets: list[tuple[int, ...]] = []
        for k in range(complex.dim + 1):
            level = self.faces[self.starts[k]:self.starts[k + 1]]
            facets += [tuple(map(ids.__getitem__, combinations(s, k)))[::-1] for s in level] if k else [()] * len(level)
        self.facets = tuple(facets)
        containing: list[list[int]] = [[] for _ in range(complex.n_vertices)]
        for i, s in enumerate(self.faces):
            for v in s:
                containing[v].append(i)
        self.vertex_masks = tuple(_mask_of(ids, len(self.faces)) for ids in containing)
        self.full = (1 << len(self.faces)) - 1
        self.down: dict[int, int] = {}

    def star_mask(self, i: int) -> int:
        """Mask of the faces containing face i."""
        vertex_masks = self.vertex_masks
        face = self.faces[i]
        mask = vertex_masks[face[0]]
        for v in face[1:]:
            mask &= vertex_masks[v]
        return mask

    def down_mask(self, i: int) -> int:
        """Mask of the faces of face i, itself included: its closure."""
        mask = self.down.get(i)
        if mask is None:
            mask = 1 << i
            for facet in self.facets[i]:
                mask |= self.down_mask(facet)
            self.down[i] = mask
        return mask


def _mask_of(ids: Sequence[int], size: int) -> int:
    """The mask with the given bits set, all below `size`.

    One id, such as the seed face of a star, is `1 << id`: a bitmap would
    allocate size / 8 bytes for that one bit. More ids, such as the faces
    containing a vertex, are set in one bitmap turned into an int once:
    OR-ing bit by bit into an int would copy the int for every bit.
    """
    if len(ids) == 1:
        return 1 << ids[0]
    bitmap = bytearray((size + 7) // 8)
    for i in ids:
        bitmap[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bitmap, "little")


def _ascending(mask: int) -> Iterable[int]:
    """Positions of the set bits of a mask, lowest first.

    The decode follows the number of set bits, at any width. A mask with
    fewer than 16, such as the star of one face, has its lowest set bit
    split off one at a time (`mask & -mask`): a few int operations per set
    bit, and no string of the mask's width. A mask with more, such as a
    level-1 or level-2 neighborhood, is decoded in C: its binary digits
    split at each 1 into the zero run below each set bit, and read lowest
    first, the running sums of the run lengths, plus one per earlier bit,
    are the positions. Near 16 set bits the two cost about the same from
    64 to 36,000 bits; far from it the other decode is several times slower.
    """
    if mask.bit_count() < 16:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    return map(add, accumulate(map(len, bin(mask).split("1")[:0:-1])), count())


def _index_by_vertex(simplices: Iterable[Simplex]) -> dict[int, list[frozenset[int]]]:
    """Map each vertex to the simplices, as vertex sets, that contain it."""
    containing: dict[int, list[frozenset[int]]] = {}
    for t in simplices:
        t_set = frozenset(t)
        for v in t:
            containing.setdefault(v, []).append(t_set)
    return containing


class SimplexSet:
    """A subset of the faces of a complex; its topology operators live on the complex.

    The faces are held as `mask`, an int over the complex's face ids, fixed
    at construction. The constructor takes members, checks that each is a
    face in ascending vertex order and sets their bits (`_mask_of`). The
    operators build their results from masks. `members`, the faces as a
    frozenset of simplices, is decoded from the mask on every read. Two
    sets are equal when they belong to the same complex and have the same
    mask.

    A set's facts, `_open` and `_closed`, are fixed by the code that makes
    it: a star is open, a closure and a frontier are closed, the full and
    empty sets are both, the complement swaps the two, and a set built from
    members or by `|` and `&` is neither (False reads as unknown). No
    operator writes a fact on a set it is given. Star and closure answer
    from these facts without touching the masks.

    A set holds `complex`, `_mask`, `_open`, `_closed` and `_closure`, and
    only `_closure` is written after construction: `closure` sets it once,
    on a set not made closed. It is one of the caches the module docstring
    lists.
    """

    __slots__ = ("complex", "_mask", "_open", "_closed", "_closure")

    def __init__(self, complex: SimplicialComplex, members: Iterable[Simplex]):
        size = len(complex._face_index().faces)  # refused above MAX_FACES
        members = tuple(members)
        ids = list(map(complex._face_id, members))
        if None in ids:
            raise UnknownSimplexError(f"{members[ids.index(None)]} is not a face of the complex")
        self.complex = complex
        self._mask = _mask_of(ids, size)
        self._open = self._closed = False
        self._closure: SimplexSet | None = None

    @classmethod
    def _from_mask(
        cls, complex: SimplicialComplex, mask: int, open: bool = False, closed: bool = False
    ) -> "SimplexSet":
        # Unchecked: the mask and the facts come from operators on complex's face index.
        out = cls.__new__(cls)
        out.complex = complex
        out._mask = mask
        out._open = open
        out._closed = closed
        out._closure = None
        return out

    @property
    def members(self) -> frozenset[Simplex]:
        faces = self.complex._face_index().faces
        return frozenset(faces[i] for i in _ascending(self._mask))

    @property
    def mask(self) -> int:
        return self._mask

    def __iter__(self) -> Iterator[Simplex]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, simplex) -> bool:
        # A non-face, an unhashable input included, is in no set.
        i = self.complex._face_id(simplex)
        return i is not None and bool(self._mask >> i & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplexSet):
            return NotImplemented
        return self.complex is other.complex and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.complex, self._mask))

    def __repr__(self) -> str:
        return f"SimplexSet(members={self.members!r})"

    def _check_host(self, other: "SimplexSet") -> None:
        if self.complex is not other.complex:
            raise ValueError("simplex sets belong to different complexes")

    def __or__(self, other: "SimplexSet") -> "SimplexSet":
        if not isinstance(other, SimplexSet):
            return NotImplemented
        self._check_host(other)
        return SimplexSet._from_mask(self.complex, self._mask | other._mask)

    def __and__(self, other: "SimplexSet") -> "SimplexSet":
        if not isinstance(other, SimplexSet):
            return NotImplemented
        self._check_host(other)
        return SimplexSet._from_mask(self.complex, self._mask & other._mask)

    def complement(self) -> "SimplexSet":
        """X minus the set: closed when the set is known open, and open when it is known closed."""
        full = self.complex._face_index().full
        return SimplexSet._from_mask(self.complex, full & ~self._mask, open=self._closed, closed=self._open)

    def connected_components(self) -> int:
        """Components of the face-inclusion relation restricted to the set.

        Each member is joined to every member below it, read from its closure
        mask: all faces, not only facets, since the set need not be closed.
        """
        index = self.complex._face_index()
        mask = self._mask
        parent = {i: i for i in _ascending(mask)}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in parent:
            root = find(i)
            for j in _ascending(index.down_mask(i) & mask):
                other = find(j)
                if other != root:
                    parent[other] = root
        return len({find(i) for i in parent})


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
