"""Neighborhood filtrations, local-homology profiles, and stratification checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .complexes import Simplex, SimplexSet, SimplicialComplex
from .homology import (
    BettiVector,
    induced_map_rank,
    local_betti,
    local_betti_at,
)

BOUNDARY_LIKE = "boundary-like"
RAMIFICATION = "ramification"


def manifold_interior(n: int) -> str:
    if type(n) is not int or n < 0:  # type(True) is bool
        raise ValueError(f"manifold dimension must be non-negative and an int, not {n!r}")
    return f"manifold-interior({n})"


def neighborhood(complex: SimplicialComplex, seed, m: int) -> SimplexSet:
    """m-th neighborhood of a seed set: star at level 0, then star of closure."""
    return neighborhood_filtration(complex, seed, m).levels[-1]


@dataclass(frozen=True)
class NeighborhoodFiltration:
    """Monotone sequence of open neighborhoods around a seed set."""

    levels: tuple[SimplexSet, ...]

    def __len__(self) -> int:
        return len(self.levels)


def _require_level(m_max) -> None:
    if type(m_max) is not int or m_max < 0:  # type(True) is bool
        raise ValueError(f"neighborhood level must be non-negative and an int, not {m_max!r}")


def neighborhood_filtration(complex: SimplicialComplex, seed, m_max: int) -> NeighborhoodFiltration:
    _require_level(m_max)
    levels = [complex.star(seed)]
    for _ in range(m_max):
        levels.append(complex.star(complex.closure(levels[-1])))
    return NeighborhoodFiltration(levels=tuple(levels))


def _classify_vector(values: BettiVector, n: int) -> str:
    interior = manifold_interior(n)
    # Betti numbers are never negative, so a sum of 1 with a 1 at n is e_n.
    if n < len(values) and values[n] == 1 and sum(values) == 1:
        return interior
    if not any(values):
        return BOUNDARY_LIKE
    return RAMIFICATION


def classify(complex: SimplicialComplex, simplex: Simplex, n: int) -> str:
    """Classify a simplex by its local homology against dimension n.

    A one-dimensional space in degree n and nothing elsewhere is the
    signature of a manifold interior point; all zeros is the signature of a
    manifold boundary point; anything else marks a ramification.
    """
    return _classify_vector(local_betti_at(complex, simplex), n)


@dataclass(frozen=True)
class LocalProfile:
    """Local Betti numbers of one simplex across neighborhood levels.

    The classification is read off the level-0 vector against the complex
    dimension; `classify` reads one simplex against any other n.
    """

    simplex: Simplex
    betti_by_level: tuple[BettiVector, ...]
    classification: str


def local_profile(complex: SimplicialComplex, simplex: Simplex, m_max: int) -> LocalProfile:
    filtration = neighborhood_filtration(complex, [simplex], m_max)
    levels = tuple([local_betti(complex, level) for level in filtration.levels])
    return LocalProfile(
        simplex=simplex,
        betti_by_level=levels,
        classification=_classify_vector(levels[0], complex.dim),
    )


def profile_many(
    complex: SimplicialComplex,
    simplices: Optional[Iterable[Simplex]] = None,
    m_max: int = 0,
) -> list[LocalProfile]:
    """Profiles for many simplices, in lexicographic simplex order.

    Each classification is read against the complex dimension. A seed that
    is not a face raises `UnknownSimplexError`, also when it cannot be
    ordered against the others. A level `m_max` that is not a non-negative
    `int` raises `ValueError`, also when there are no seeds.
    """
    _require_level(m_max)
    targets = list(complex.all_faces() if simplices is None else simplices)
    try:
        targets.sort()
    except TypeError:
        # Faces are int tuples, which always order, so some seed is not a
        # face, and simplex_set raises for the first such.
        complex.simplex_set(targets)
        raise
    return [local_profile(complex, s, m_max) for s in targets]


def generalized_degree(complex: SimplicialComplex, simplex: Simplex) -> int:
    """One plus the first local Betti number at the simplex star.

    Equals the vertex degree for vertices of a graph seen as a 1-complex
    (with at least one incident edge), and counts the local components left
    after deleting the star in complexes with trivial first homology.
    """
    values = local_betti_at(complex, simplex)
    first = values[1] if len(values) > 1 else 0
    return 1 + first


def is_homology_n_manifold(
    complex: SimplicialComplex, n: int
) -> tuple[bool, list[Simplex]]:
    """Check the local-homology signature of every simplex against dimension n.

    Returns (True, []) when every simplex looks like a manifold interior
    point; otherwise (False, offenders) with the offending simplices in
    lexicographic order. Each level-0 profile is read against n, not
    against the complex dimension its own classification uses.
    """
    interior = manifold_interior(n)
    profiles = profile_many(complex, m_max=0)
    offenders = [p.simplex for p in profiles if _classify_vector(p.betti_by_level[0], n) != interior]
    return (not offenders, offenders)


def filtration_persistence(
    complex: SimplicialComplex, simplex: Simplex, k: int, m_max: int
) -> list[tuple[int, Optional[int]]]:
    """Betti numbers along the neighborhood filtration with transition ranks.

    Entry m holds the k-th local Betti number of level m and the rank of
    the restriction map from level m+1 into level m (maps run from the
    larger neighborhood to the smaller); the final entry has no outgoing
    map and records None.
    """
    if type(k) is not int or type(m_max) is not int or k < 0 or m_max < 0:
        raise ValueError(f"homology dimension {k!r} and neighborhood level {m_max!r} must be non-negative ints")
    filtration = neighborhood_filtration(complex, [simplex], m_max + 1)
    out: list[tuple[int, Optional[int]]] = []
    for m in range(m_max + 1):
        values = local_betti(complex, filtration.levels[m])
        b = values[k] if k < len(values) else 0
        if m < m_max:
            r = induced_map_rank(complex, filtration.levels[m + 1], filtration.levels[m], k)
        else:
            r = None
        out.append((b, r))
    return out


def profiles_to_csv(complex: SimplicialComplex, profiles: Sequence[LocalProfile]) -> str:
    """Per-simplex report, one line per simplex and neighborhood level.

    Fields are semicolon separated because the simplex field itself is a
    comma-joined vertex id list.
    """
    top = complex.dim
    header = ";".join(["simplex", "dim", "m", *(f"beta_{k}" for k in range(top + 1)), "class"])
    lines = [header]
    for profile in profiles:
        simplex_text = ",".join(str(v) for v in profile.simplex)
        for m, values in enumerate(profile.betti_by_level):
            padded = tuple(values) + (0,) * (top + 1 - len(values))
            beta_text = ";".join(str(b) for b in padded)
            lines.append(
                f"{simplex_text};{len(profile.simplex) - 1};{m};{beta_text};{profile.classification}"
            )
    return "\n".join(lines) + "\n"
