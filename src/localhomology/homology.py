"""Relative chain complexes, Betti numbers, local homology, induced maps.

The relative chain space of a pair (X, Y) with Y a subcomplex has one basis
element per face of X outside Y; the boundary of a face keeps only those
facets that also lie outside Y. Local homology at an open set U is computed
by excision as the relative homology of (cl U, fr U), whose chain complex
has exactly the faces of U as its basis. A direct route that works on all
of X relative to the complement of U is kept alongside as an oracle; both
must produce the same Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Simplex, SimplexSet, SimplicialComplex, facets_with_signs
from .errors import NotClosedError, NotOpenError, PreconditionError, UnknownSimplexError
from .linalg import ExactMatrix, IncrementalRank, kernel_basis, rank, solve_in_image

BettiVector = tuple[int, ...]


@dataclass(frozen=True)
class ChainComplexRep:
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


def _chain_complex(complex: SimplicialComplex, basis: frozenset[Simplex]) -> ChainComplexRep:
    """Chain complex on the given basis faces of a relative pair.

    A signed facet enters a boundary column exactly when it is a basis face
    one dimension down; the others lie in the excluded subcomplex.
    """
    bases = tuple(tuple(sorted(level)) for level in complex._by_dimension(basis))
    boundaries = []
    for k, level in enumerate(bases):
        if k == 0:
            boundaries.append(ExactMatrix.zeros(0, len(level)))
            continue
        entries: dict[tuple[int, int], int] = {}
        lower = {s: i for i, s in enumerate(bases[k - 1])}
        for col, simplex in enumerate(level):
            for sign, face in facets_with_signs(simplex):
                row = lower.get(face)
                if row is not None:
                    entries[(row, col)] = sign
        boundaries.append(ExactMatrix(len(bases[k - 1]), len(level), entries))
    return ChainComplexRep(bases=bases, boundaries=tuple(boundaries))


def relative_chain_complex(complex: SimplicialComplex, excluded) -> ChainComplexRep:
    """Chain complex of the pair (X, Y) for a closed subset Y of X."""
    excluded_set = (
        excluded if isinstance(excluded, SimplexSet) else complex.simplex_set(excluded)
    )
    if not complex.is_closed(excluded_set):
        raise NotClosedError("excluded set must be a subcomplex (closed)")
    return _chain_complex(complex, excluded_set.complement().members)


def betti(chain_complex: ChainComplexRep) -> BettiVector:
    """Betti numbers: basis size minus adjacent boundary ranks per dimension."""
    ranks = [rank(m) for m in chain_complex.boundaries] + [0]
    return tuple(
        len(chain_complex.bases[k]) - ranks[k] - ranks[k + 1]
        for k in range(len(chain_complex.bases))
    )


def _excised_chain_complex(complex: SimplicialComplex, open_set: SimplexSet) -> ChainComplexRep:
    """Chain complex of (cl U, fr U); its basis is exactly the faces of U."""
    closure = complex.closure(open_set)
    frontier = complex.frontier(open_set)
    return _chain_complex(complex, closure.members - frontier.members)


def _require_open(complex: SimplicialComplex, subset) -> SimplexSet:
    open_set = subset if isinstance(subset, SimplexSet) else complex.simplex_set(subset)
    if not complex.is_open(open_set):
        raise NotOpenError("subset is not open in the Alexandrov topology")
    return open_set


def local_betti(complex: SimplicialComplex, open_set) -> BettiVector:
    """Local Betti numbers at an open set, via excision."""
    u = _require_open(complex, open_set)
    if complex.dim < 0:
        return ()
    return betti(_excised_chain_complex(complex, u))


def local_betti_direct(complex: SimplicialComplex, open_set) -> BettiVector:
    """Local Betti numbers computed on all of X relative to the complement.

    Builds the full relative pair without the excision shortcut; used to
    cross-check `local_betti`.
    """
    u = _require_open(complex, open_set)
    if complex.dim < 0:
        return ()
    return betti(relative_chain_complex(complex, u.complement()))


def local_betti_at(complex: SimplicialComplex, simplex: Simplex) -> BettiVector:
    """Local Betti numbers at the star of a single simplex."""
    if simplex not in complex:
        raise UnknownSimplexError(f"{simplex} is not a face of the complex")
    return local_betti(complex, complex.star([simplex]))


def global_betti(complex: SimplicialComplex) -> BettiVector:
    if complex.dim < 0:
        return ()
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
        chosen = [z for z in cycles if chooser.add(z)]
        all_reps.append(tuple(chosen))
    return HomologyBasis(chain_bases=rep.bases, representatives=tuple(all_reps))


def induced_map_matrix(
    complex: SimplicialComplex, larger, smaller, k: int
) -> ExactMatrix:
    """Matrix of the restriction map on k-th local homology.

    The pair inclusion for nested open sets V inside U induces a map from
    the homology at U to the homology at V; on chains it is the coordinate
    projection that forgets basis simplices in U but not in V. Columns are
    the images of the source representatives expressed in the target
    representative basis.
    """
    u = _require_open(complex, larger)
    v = _require_open(complex, smaller)
    if not v.members <= u.members:
        raise PreconditionError("smaller open set must be contained in the larger one")
    if k < 0:
        raise ValueError("homology dimension must be non-negative")
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
    span = ExactMatrix.from_columns(columns, len(to_target))

    out_columns = []
    for z in src_reps:
        coords = solve_in_image(span, {to_target[p]: v for p, v in z.items() if p in to_target})
        if coords is None:
            raise AssertionError("projected cycle not expressible in target cycle space")
        out_columns.append({j: v for j, v in coords.items() if j < n_hom})
    return ExactMatrix.from_columns(out_columns, n_hom)


def induced_map_rank(complex: SimplicialComplex, larger, smaller, k: int) -> int:
    """Rank of the restriction map on k-th local homology."""
    return rank(induced_map_matrix(complex, larger, smaller, k))
