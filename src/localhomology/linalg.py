"""Exact linear algebra over the rationals.

All Betti-number computations in this package reduce to ranks, kernels and
solves on sparse signed incidence matrices. They share one exact
elimination loop, `_reduce`: each column is scaled to integers by the lcm of
its denominators (an all-`int` column is copied as it is), and the columns
are reduced left to right by their lowest nonzero row, the standard
boundary-matrix reduction, done fraction-free so every entry stays a Python
`int`. For kernels and solves each column also carries tags that record the
column operations applied to it (R = D V); a column whose rows all cancel
leaves a kernel vector, or a solution, in its tags. No tolerance tuning is
ever needed.

A matrix is reduced for solving once: the first `solve_in_image` on an
`ExactMatrix` keeps its tagged pivots on the matrix, and every later solve
reduces only its target against them, without inserting it. The pivots
never change once stored, so like the matrix itself they are safe for
concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence


class ExactMatrix:
    """Sparse matrix with exact rational entries.

    Entries map (row, col) -> int or Fraction with zeros omitted: int values
    stay int, others become Fraction, and since Fraction(1) == 1 with equal
    hashes, equality and hashing ignore which. Immutable once constructed;
    the tagged pivots that `solve_in_image` builds on first use are a cache
    of a value determined by the entries, so concurrent readers are safe.
    The methods are the ones the library needs: construction, dense columns
    for the homology bases, and the product behind
    `ChainComplexRep.validate`.
    """

    __slots__ = ("rows", "cols", "entries", "_solve_pivots")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple, object] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction | int] = {}
        for (i, j), value in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry position ({i}, {j}) outside {rows}x{cols} matrix")
            q = value if type(value) is int else Fraction(value)
            if q:
                clean[(i, j)] = q
        self.entries = clean
        self._solve_pivots: dict[int, dict[int, int]] | None = None

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[object]], rows: int) -> "ExactMatrix":
        if any(len(col) != rows for col in columns):
            raise ValueError("column of wrong length")
        entries = {(i, j): v for j, col in enumerate(columns) for i, v in enumerate(col) if v}
        return cls(rows, len(columns), entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, {})

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def columns_as_vectors(self) -> list[tuple[Fraction | int, ...]]:
        """Dense columns; absent entries are the int 0."""
        columns = [[0] * self.rows for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            columns[j][i] = v
        return [tuple(column) for column in columns]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        by_row: dict[int, dict[int, Fraction | int]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        other_rows: dict[int, dict[int, Fraction | int]] = {}
        for (k, j), w in other.entries.items():
            other_rows.setdefault(k, {})[j] = w
        entries: dict[tuple[int, int], Fraction | int] = {}
        for i, row in by_row.items():
            acc: dict[int, Fraction | int] = {}
            for k, v in row.items():
                for j, w in other_rows.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, s in acc.items():
                if s:
                    entries[(i, j)] = s
        return ExactMatrix(self.rows, other.cols, entries)


def _columns(matrix: ExactMatrix) -> dict[int, dict[int, Fraction | int]]:
    """The nonzero columns of the matrix, keyed by column index."""
    columns: dict[int, dict[int, Fraction | int]] = {}
    for (i, j), v in matrix.entries.items():
        columns.setdefault(j, {})[i] = v
    return columns


def _sparse(vector: Iterable[object]) -> dict[int, Fraction | int]:
    """Nonzero entries by position; int and Fraction entries are kept as they are."""
    return {
        i: v if isinstance(v, (int, Fraction)) else Fraction(v) for i, v in enumerate(vector) if v
    }


def _integer_column(column: Mapping[int, Fraction | int], tag: int | None = None) -> dict[int, int]:
    """The column times the lcm of its entries' denominators.

    With a tag key, the column also records that scale at the tag, so a
    tagged column always holds the coefficients that produce it. An
    all-`int` column has scale 1 and is copied as it is.
    """
    if all(type(v) is int for v in column.values()):
        scale = 1
        out = dict(column)
    else:
        scale = lcm(*(v.denominator for v in column.values()))
        out = {i: v.numerator * (scale // v.denominator) for i, v in column.items()}
    if tag is not None:
        out[tag] = scale
    return out


def _reduce(col: dict[int, int], pivots: Mapping[int, dict[int, int]]) -> int | None:
    """Reduce an integer column in place; its new lowest row, or None if no row is left.

    `pivots` maps each lowest row to its reduced column and is only read.
    While the lowest row of `col` belongs to a pivot, col is replaced by
    a*col - b*pivot (a, b divided by their gcd, a > 0), and after a step with
    a != 1 by itself divided by the gcd of its entries. Keys below zero are
    tags, not rows: they ride along with every step, so a column whose rows
    all cancel is left holding only tags and the reduction stops there.
    """
    while col:
        low = max(col)
        pivot = pivots.get(low)
        if pivot is None:
            return low if low >= 0 else None  # below zero: only tags are left
        a, b = pivot[low], col[low]
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        a, b = a // g, b // g  # a > 0, and a == 1 whenever a divides b
        if a != 1:
            for i in col:
                col[i] *= a
        for i, v in pivot.items():
            s = col.get(i, 0) - b * v
            if s:
                col[i] = s
            else:
                del col[i]
        if a != 1 and col:
            g = gcd(*col.values())
            if g != 1:
                for i in col:
                    col[i] //= g
    return None


def _add_pivot(col: dict[int, int], pivots: dict[int, dict[int, int]]) -> bool:
    """Reduce an integer column in place; True when it is stored as a new pivot."""
    low = _reduce(col, pivots)
    if low is None:
        return False
    pivots[low] = col
    return True


def _tagged_reduction(matrix: ExactMatrix) -> tuple[dict[int, dict[int, int]], list[dict[int, int]]]:
    """Reduce every column j, tagged at key -1-j, left to right.

    Returns the pivots and what is left of each column whose rows all
    cancel: its tags, the coefficients of a kernel vector.
    """
    columns = _columns(matrix)
    pivots: dict[int, dict[int, int]] = {}
    cancelled = []
    for j in range(matrix.cols):
        col = _integer_column(columns.get(j, {}), -1 - j)
        if not _add_pivot(col, pivots):
            cancelled.append(col)
    return pivots, cancelled


def rank(matrix: ExactMatrix) -> int:
    """Rank over the rationals, by fraction-free column reduction over the integers.

    Scaling a column by a nonzero integer keeps the rank, and so does
    replacing column j by a*col_j - b*col_i when a, the pivot entry of
    column i at j's lowest row, is nonzero. Reduced nonzero columns have
    distinct lowest rows, so they are independent and their count is the rank.
    """
    columns = _columns(matrix)
    pivots: dict[int, dict[int, int]] = {}
    for j in sorted(columns):
        if len(pivots) == matrix.rows:
            break  # every row is a pivot, so every later column reduces to zero
        _add_pivot(_integer_column(columns[j]), pivots)
    return len(pivots)


def kernel_basis(matrix: ExactMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space, one primitive integer vector per non-pivot column.

    The vector of column j is nonzero at j, positive there, and otherwise
    supported on pivot columns left of j, so the vectors are independent.
    """
    basis = []
    for tags in _tagged_reduction(matrix)[1]:
        g = gcd(*tags.values())
        vec = [0] * matrix.cols
        for tag, v in tags.items():
            vec[-1 - tag] = v // g
        basis.append(tuple(vec))
    return basis


def solve_in_image(matrix: ExactMatrix, target: Sequence[object]) -> Optional[tuple[Fraction, ...]]:
    """Some x with matrix @ x = target, or None when target is outside the image.

    x is supported on the pivot columns, those independent of the columns
    left of them, so the returned solution is deterministic. The matrix's
    columns are reduced on the first solve and the pivots kept on it; the
    target is reduced against them but never added, so every solve on the
    same matrix sees the same pivots.
    """
    if len(target) != matrix.rows:
        raise ValueError("target length does not match row count")
    pivots = matrix._solve_pivots
    if pivots is None:
        # Built in full before it is stored; a racing solve stores an equal value.
        pivots = matrix._solve_pivots = _tagged_reduction(matrix)[0]
    n = matrix.cols
    col = _integer_column(_sparse(target), -1 - n)
    if _reduce(col, pivots) is not None:
        return None
    own = col.pop(-1 - n)  # the rows cancel: matrix @ tags + own * target = 0
    x = [Fraction(0)] * n
    for tag, v in col.items():
        x[-1 - tag] = Fraction(-v, own)
    return tuple(x)


class IncrementalRank:
    """Grow an independent set of vectors one at a time.

    Used to pick homology representatives: feed boundary generators first,
    then keep exactly the cycle vectors that still increase the rank.
    """

    def __init__(self, length: int):
        self.length = length
        self._pivots: dict[int, dict[int, int]] = {}  # lowest row -> reduced column

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vector: Iterable[object]) -> bool:
        return _add_pivot(_integer_column(_sparse(vector)), self._pivots)
