"""Exact linear algebra over the rationals.

All Betti-number computations in this package reduce to ranks, kernels and
solves on sparse signed incidence matrices. Vectors, and the columns an
`ExactMatrix` stores, have one form: {index: value} dicts of nonzero `int`
or `Fraction` values, to which every input is brought by the rule of
`_vector`. The computations share one exact elimination loop, `_reduce`:
each column is scaled to integers by the lcm of its denominators (an
all-`int` column is copied as it is), and the columns are reduced left to
right by their lowest nonzero row, the standard boundary-matrix reduction,
done fraction-free so every entry stays a Python `int`. For kernels and
solves each column also carries tags that record the column operations
applied to it (R = D V); a column whose rows all cancel leaves a kernel
vector, or a solution, in its tags. No tolerance tuning is ever needed.

A matrix is reduced for solving once: the first `solve_in_image` on an
`ExactMatrix` keeps its tagged pivots on the matrix, and every later solve
reduces only its target against them, without inserting it. The pivots
never change once stored, so like the matrix itself they are safe for
concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence


class ExactMatrix:
    """Sparse matrix with exact rational entries, stored by column.

    `columns` maps each column index to that column's nonzero entries,
    {row: value}; all-zero columns are absent. Values given as int stay int,
    others become Fraction, and since Fraction(1) == 1 with equal hashes,
    equality and hashing ignore which. `entries`, the (row, col) -> value
    map, is built from the columns on each access. Immutable once
    constructed: nothing here or in the reductions writes to the stored
    columns, and the tagged pivots that `solve_in_image` builds on first use
    are a cache of a value determined by them, so concurrent readers are safe.
    """

    __slots__ = ("rows", "cols", "columns", "_solve_pivots")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple, object] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        columns: dict[int, dict[int, Fraction | int]] = {}
        for (i, j), value in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry position ({i}, {j}) outside {rows}x{cols} matrix")
            q = value if type(value) is int else Fraction(value)
            if q:
                columns.setdefault(j, {})[i] = q
        self.columns = columns
        self._solve_pivots: dict[int, dict[int, int]] | None = None

    @classmethod
    def from_columns(cls, columns: Sequence[Mapping[int, object]], rows: int) -> "ExactMatrix":
        """The matrix whose j-th column is the {row: value} vector columns[j]."""
        entries = {(i, j): v for j, column in enumerate(columns) for i, v in column.items()}
        return cls(rows, len(columns), entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    @property
    def entries(self) -> dict[tuple[int, int], Fraction | int]:
        """(row, col) -> value for every nonzero entry, as a new dict."""
        return {(i, j): v for j, column in self.columns.items() for i, v in column.items()}

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns.values()))

    def is_zero(self) -> bool:
        return not self.columns

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self.columns == other.columns

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Column j of the product is the sum of w * column k of self over
        the entries w at (k, j) of other."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        columns = []
        for j in range(other.cols):
            acc: dict[int, Fraction | int] = {}
            for k, w in other.columns.get(j, {}).items():
                for i, v in self.columns.get(k, {}).items():
                    acc[i] = acc.get(i, 0) + v * w
            columns.append(acc)
        return ExactMatrix.from_columns(columns, self.rows)


def _vector(vector: Mapping[int, object], size: int | None = None) -> dict[int, Fraction | int]:
    """The nonzero entries of an {index: value} vector, as a new dict.

    The one input rule, which `ExactMatrix.__init__` applies to each entry:
    an index must lie in range(size), or be non-negative without a size
    (keys below zero are tags); zeros are dropped, `int` values stay `int`,
    others become `Fraction`.
    """
    out = {}
    for i, value in vector.items():
        if i < 0 or (size is not None and i >= size):
            raise ValueError(f"vector index {i} out of range")
        q = value if type(value) is int else Fraction(value)
        if q:
            out[i] = q
    return out


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
    pivots: dict[int, dict[int, int]] = {}
    cancelled = []
    for j in range(matrix.cols):
        col = _integer_column(matrix.columns.get(j, {}), -1 - j)
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
    pivots: dict[int, dict[int, int]] = {}
    for j in sorted(matrix.columns):
        if len(pivots) == matrix.rows:
            break  # every row is a pivot, so every later column reduces to zero
        _add_pivot(_integer_column(matrix.columns[j]), pivots)
    return len(pivots)


def kernel_basis(matrix: ExactMatrix) -> list[dict[int, int]]:
    """Basis of the right null space, one primitive integer vector per non-pivot column.

    Each is a {column: value} vector. That of column j is nonzero at j,
    positive there, and otherwise supported on pivot columns left of j, so
    the vectors are independent.
    """
    basis = []
    for tags in _tagged_reduction(matrix)[1]:
        g = gcd(*tags.values())
        basis.append({-1 - tag: v // g for tag, v in tags.items()})
    return basis


def solve_in_image(matrix: ExactMatrix, target: Mapping[int, object]) -> Optional[dict[int, Fraction]]:
    """Some x with matrix @ x = target, or None when target is outside the image.

    target is a {row: value} vector; x, a {column: value} vector, is
    supported on the pivot columns, those independent of the columns left
    of them, so the returned solution is deterministic. The matrix's columns
    are reduced on the first solve and the pivots kept on it; the target is
    reduced against them but never added, so every solve on the same matrix
    sees the same pivots.
    """
    n = matrix.cols
    col = _integer_column(_vector(target, matrix.rows), -1 - n)
    pivots = matrix._solve_pivots
    if pivots is None:
        # Built in full before it is stored; a racing solve stores an equal value.
        pivots = matrix._solve_pivots = _tagged_reduction(matrix)[0]
    if _reduce(col, pivots) is not None:
        return None
    own = col.pop(-1 - n)  # the rows cancel: matrix @ tags + own * target = 0
    return {-1 - tag: Fraction(-v, own) for tag, v in col.items()}


class IncrementalRank:
    """Grow an independent set of vectors one at a time.

    Used to pick homology representatives: feed boundary generators first,
    then keep exactly the cycle vectors that still increase the rank.
    """

    def __init__(self):
        self._pivots: dict[int, dict[int, int]] = {}  # lowest row -> reduced column

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vector: Mapping[int, object]) -> bool:
        """True when the {index: value} vector raises the rank; it is then kept.

        The vector, such as a column of `ExactMatrix.columns`, is only read.
        """
        return _add_pivot(_integer_column(_vector(vector)), self._pivots)
