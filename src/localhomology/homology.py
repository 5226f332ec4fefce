"""Relative chain complexes, Betti numbers, local homology, induced maps.

The relative chain space of a pair (X, Y) with Y a subcomplex has one basis
element per face of X outside Y; the boundary of a face keeps only those
facets that also lie outside Y, since the others lie in Y. `_chain_complex`
builds every chain complex here from its basis, handed over as a mask over
the face index. Local homology at an open set U is computed by excision as
the relative homology of (cl U, fr U), whose chain complex has exactly the
faces of U as its basis: the mask of cl U with the bits of fr U cleared, so
no set is built only to be read. A direct route on all of X relative to the
complement of U is kept as an oracle; both must produce the same Betti
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .complexes import Simplex, SimplexSet, SimplicialComplex, _ascending
from .errors import NotClosedError, NotOpenError, PreconditionError, _require_count
from .linalg import ExactMatrix, IncrementalRank, kernel_basis, rank, solve_in_image

BettiVector = tuple[int, ...]


class ChainComplexRep(NamedTuple):
    """Ordered bases and signed boundary matrices of a relative chain complex.

    bases[k] lists the k-dimensional basis faces in lexicographic order;
    boundaries[k] maps the k-basis to the (k-1)-basis, with boundaries[0]
    mapping onto the zero space.
    """

    bases: tuple[tuple[Simplex, ...], ...]
    boundaries: tuple[ExactMatrix, ...]

    def validate(self) -> None:
        for k, matrix in enumerate(self.boundaries):
            if matrix.cols != len(self.bases[k]):
                raise AssertionError(f"boundary {k} has wrong column count")
            if k >= 1 and matrix.rows != len(self.bases[k - 1]):
                raise AssertionError(f"boundary {k} has wrong row count")
        for k in range(1, len(self.boundaries)):
            if not (self.boundaries[k - 1] @ self.boundaries[k]).is_zero():
                raise AssertionError(f"boundary composition at dimension {k} is nonzero")


def _chain_complex(complex: SimplicialComplex, mask: int) -> ChainComplexRep:
    """Chain complex on the basis faces that a mask over the face index marks, in one pass.

    The mask is read lowest id first by `_ascending`, which by the face
    index's id order lists each dimension's basis in order and every facet
    before the faces that have it. So each face's signed column is built
    where the face is read, from its facet ids and one {face id: place in
    its dimension} dict, without building or hashing a vertex tuple. Facet
    j of a face enters its column with sign (-1)^j when it is a basis face;
    the sign alternates along each face's facets and restarts at +1 for the
    next face. A vertex has no facets, so it skips the facet loop, and
    `ExactMatrix._boundaries` makes every matrix in one call: a star holds
    about four faces, too few to pay for a call per dimension.
    """
    index = complex._face_index()
    faces, facets = index.faces, index.facets
    levels: list[list[Simplex]] = [[] for _ in range(complex.dim + 1)]
    columns: list[dict[int, dict[int, int]]] = [{} for _ in levels]
    position: dict[int, int] = {}  # basis face id -> its place in its dimension
    get = position.get
    for face_id in _ascending(mask):
        s = faces[face_id]
        k = len(s) - 1
        level = levels[k]
        place = len(level)
        if k:
            column = {}
            sign = 1
            for facet in facets[face_id]:
                row = get(facet)
                if row is not None:
                    column[row] = sign
                sign = -sign
            if column:  # stored as built; empty columns are left out
                columns[k][place] = column
        position[face_id] = place
        level.append(s)
    return ChainComplexRep(bases=tuple(map(tuple, levels)), boundaries=ExactMatrix._boundaries(levels, columns))


def relative_chain_complex(complex: SimplicialComplex, excluded) -> ChainComplexRep:
    """Chain complex of the pair (X, Y) for a closed subset Y of X."""
    excluded_set = complex._coerce(excluded)
    if not complex.is_closed(excluded_set):
        raise NotClosedError("excluded set must be a subcomplex (closed)")
    return _chain_complex(complex, complex._face_index().full & ~excluded_set._mask)


def betti(chain_complex: ChainComplexRep) -> BettiVector:
    """Betti numbers: basis size minus adjacent boundary ranks per dimension."""
    ranks = list(map(rank, chain_complex.boundaries)) + [0]
    return tuple([len(basis) - ranks[k] - ranks[k + 1] for k, basis in enumerate(chain_complex.bases)])


def _excised_chain_complex(complex: SimplicialComplex, open_set: SimplexSet) -> ChainComplexRep:
    """Chain complex of (cl U, fr U); its basis cl U minus fr U is exactly the faces of U."""
    return _chain_complex(complex, complex.closure(open_set)._mask & ~complex.frontier(open_set)._mask)


def _require_open(complex: SimplicialComplex, subset) -> SimplexSet:
    open_set = complex._coerce(subset)
    if not complex.is_open(open_set):
        raise NotOpenError("subset is not open in the Alexandrov topology")
    return open_set


def local_betti(complex: SimplicialComplex, open_set) -> BettiVector:
    """Local Betti numbers at an open set, via excision."""
    u = _require_open(complex, open_set)
    return betti(_excised_chain_complex(complex, u))


def local_betti_direct(complex: SimplicialComplex, open_set) -> BettiVector:
    """Local Betti numbers computed on all of X relative to the complement.

    Builds the full relative pair without the excision shortcut; used to
    cross-check `local_betti`.
    """
    u = _require_open(complex, open_set)
    return betti(relative_chain_complex(complex, u.complement()))


def local_betti_at(complex: SimplicialComplex, simplex: Simplex) -> BettiVector:
    """Local Betti numbers at the star of a single simplex."""
    return local_betti(complex, complex.star([simplex]))


def global_betti(complex: SimplicialComplex) -> BettiVector:
    return betti(relative_chain_complex(complex, complex.empty_set()))


def reduced_betti(complex: SimplicialComplex) -> BettiVector:
    """Reduced Betti numbers over a field: drop one from dimension zero."""
    if complex.dim < 0:
        raise PreconditionError("reduced homology of the empty complex is not defined")
    plain = global_betti(complex)
    return (plain[0] - 1,) + plain[1:]


@dataclass(frozen=True)
class HomologyBasis:
    """Cycle representatives spanning each local homology space.

    chain_bases[k] lists the k-simplices of the open set; each representative
    in representatives[k] is an integer relative cycle, a dict {position in
    chain_bases[k]: coefficient} of its nonzero coefficients, and the
    representatives are independent modulo boundaries.
    """

    chain_bases: tuple[tuple[Simplex, ...], ...]
    representatives: tuple[tuple[dict[int, int], ...], ...]

    def betti(self) -> BettiVector:
        return tuple(len(reps) for reps in self.representatives)


def homology_basis(complex: SimplicialComplex, open_set) -> HomologyBasis:
    """Explicit representatives of the local homology at an open set."""
    u = _require_open(complex, open_set)
    rep = _excised_chain_complex(complex, u)
    all_reps = []
    for k in range(len(rep.bases)):
        cycles = kernel_basis(rep.boundaries[k])
        chooser = IncrementalRank()
        if k + 1 < len(rep.bases):
            for column in rep.boundaries[k + 1].columns.values():
                chooser.add(column)
        all_reps.append(tuple(z for z in cycles if chooser.add(z)))
    return HomologyBasis(chain_bases=rep.bases, representatives=tuple(all_reps))


def induced_map_matrix(
    complex: SimplicialComplex, larger, smaller, k: int
) -> ExactMatrix:
    """Matrix of the restriction map on k-th local homology.

    The pair inclusion for nested open sets V inside U induces a map from
    the homology at U to the homology at V; on chains it is the coordinate
    projection that forgets basis simplices in U but not in V. Columns are
    the images of the source representatives expressed in the target
    representative basis. Their values are `solve_in_image`'s nonzero
    `Fraction`s, stored as solved: all-zero columns are left out, as
    `ExactMatrix.from_columns` leaves them out, and the matrix is integral
    only when it stores no value.
    """
    u = _require_open(complex, larger)
    v = _require_open(complex, smaller)
    if v._mask & ~u._mask:
        raise PreconditionError("smaller open set must be contained in the larger one")
    _require_count(k, "homology dimension")
    if k > complex.dim:
        return ExactMatrix.zeros(0, 0)
    src = homology_basis(complex, u)
    tgt = homology_basis(complex, v)
    src_reps = src.representatives[k]
    tgt_reps = tgt.representatives[k]
    tgt_rep_obj = _excised_chain_complex(complex, v)
    # V lies inside U, so every target chain face is a source chain face.
    src_index = {s: i for i, s in enumerate(src.chain_bases[k])}
    to_target = {src_index[s]: t for t, s in enumerate(tgt.chain_bases[k])}

    columns = list(tgt_reps)
    n_hom = len(columns)
    if k + 1 < len(tgt_rep_obj.bases):
        columns.extend(tgt_rep_obj.boundaries[k + 1].columns.values())
    # Kernel vectors and boundary columns: nonzero, in range and integral already.
    span = ExactMatrix._stored(len(to_target), len(columns), dict(enumerate(columns)), True)

    out_columns = {}
    for i, z in enumerate(src_reps):
        coords = solve_in_image(span, {to_target[p]: v for p, v in z.items() if p in to_target})
        if coords is None:
            raise AssertionError("projected cycle not expressible in target cycle space")
        column = {j: v for j, v in coords.items() if j < n_hom}
        if column:
            out_columns[i] = column
    # Solutions are nonzero Fractions at rows below n_hom: already in the stored form.
    return ExactMatrix._stored(n_hom, len(src_reps), out_columns, not out_columns)


def induced_map_rank(complex: SimplicialComplex, larger, smaller, k: int) -> int:
    """Rank of the restriction map on k-th local homology."""
    return rank(induced_map_matrix(complex, larger, smaller, k))
