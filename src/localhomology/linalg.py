"""Exact linear algebra over the rationals.

All Betti-number computations in this package reduce to ranks and kernels of
sparse signed incidence matrices. `rank` has one exact integer kernel: each
column is scaled to integers by the lcm of its denominators, and the columns
are reduced left to right by their lowest nonzero row, the standard
boundary-matrix reduction, done fraction-free so every entry stays a Python
`int`. Kernels and solutions, which must be rational vectors, come from a
sparse rational row reduction. No tolerance tuning is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence


class ExactMatrix:
    """Sparse matrix with exact rational entries.

    Entries are stored as a mapping (row, col) -> Fraction with zeros
    omitted. Instances are treated as immutable once constructed.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple, object] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), value in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry position ({i}, {j}) outside {rows}x{cols} matrix")
            q = Fraction(value)
            if q:
                clean[(i, j)] = q
        self.entries = clean

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[object]], cols: int | None = None) -> "ExactMatrix":
        nrows = len(data)
        ncols = cols if cols is not None else (len(data[0]) if data else 0)
        entries = {}
        for i, row in enumerate(data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                if value:
                    entries[(i, j)] = Fraction(value)
        return cls(nrows, ncols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[object]], rows: int) -> "ExactMatrix":
        entries = {}
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column of wrong length")
            for i, value in enumerate(col):
                if value:
                    entries[(i, j)] = Fraction(value)
        return cls(rows, len(columns), entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

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

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def columns_as_vectors(self) -> list[tuple[Fraction | int, ...]]:
        """Dense columns; absent entries are the int 0."""
        columns = [[0] * self.rows for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            columns[j][i] = v
        return [tuple(column) for column in columns]

    def to_dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def apply(self, vector: Sequence[object]) -> tuple[Fraction, ...]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        vec = [Fraction(v) for v in vector]
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] += v * vec[j]
        return tuple(out)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        by_row: dict[int, dict[int, Fraction]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        other_rows: dict[int, dict[int, Fraction]] = {}
        for (k, j), w in other.entries.items():
            other_rows.setdefault(k, {})[j] = w
        entries: dict[tuple[int, int], Fraction] = {}
        for i, row in by_row.items():
            acc: dict[int, Fraction] = {}
            for k, v in row.items():
                for j, w in other_rows.get(k, {}).items():
                    acc[j] = acc.get(j, Fraction(0)) + v * w
            for j, s in acc.items():
                if s:
                    entries[(i, j)] = s
        return ExactMatrix(self.rows, other.cols, entries)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.cols)] = v
        return ExactMatrix(self.rows, self.cols + other.cols, entries)


def _rref(
    rows: list[dict[int, Fraction]], ncols: int, pivot_limit: int | None = None
) -> tuple[list[dict[int, Fraction]], list[int], list[dict[int, Fraction]]]:
    """Reduced row echelon form of sparse rational rows.

    Pivot columns are chosen by a minimal-fill heuristic: among eligible
    columns with support in the active rows, pick the one with fewest
    nonzeros, then the sparsest row within it. Columns at or beyond
    `pivot_limit` are never pivoted (used for augmented right-hand sides).
    Returns the pivot rows (pivot normalized to 1, column cleared), the
    ordered pivot columns, and any residue rows whose support lies entirely
    beyond the pivot limit.
    """
    limit = ncols if pivot_limit is None else pivot_limit
    active = [dict(r) for r in rows if r]
    done: list[dict[int, Fraction]] = []
    pivot_cols: list[int] = []
    while True:
        col_count: dict[int, int] = {}
        for r in active:
            for j in r:
                if j < limit:
                    col_count[j] = col_count.get(j, 0) + 1
        if not col_count:
            break
        pivot_col = min(col_count, key=lambda j: (col_count[j], j))
        pivot_row = min(
            (r for r in active if pivot_col in r), key=lambda r: (len(r), min(r))
        )
        active.remove(pivot_row)
        inv = Fraction(1) / pivot_row[pivot_col]
        if inv != 1:
            pivot_row = {j: v * inv for j, v in pivot_row.items()}
        for bucket in (active, done):
            for idx, r in enumerate(bucket):
                factor = r.get(pivot_col)
                if factor is None:
                    continue
                new = dict(r)
                for j, v in pivot_row.items():
                    s = new.get(j, Fraction(0)) - factor * v
                    if s:
                        new[j] = s
                    else:
                        new.pop(j, None)
                bucket[idx] = new
        active = [r for r in active if r]
        done.append(pivot_row)
        pivot_cols.append(pivot_col)
    order = sorted(range(len(pivot_cols)), key=lambda idx: pivot_cols[idx])
    return [done[idx] for idx in order], sorted(pivot_cols), active


def rank(matrix: ExactMatrix) -> int:
    """Rank over the rationals, by fraction-free column reduction over the integers.

    Scaling a column by a nonzero integer keeps the rank, and so does
    replacing column j by a*col_j - b*col_i when a, the pivot entry of
    column i at j's lowest row, is nonzero. Reduced nonzero columns have
    distinct lowest rows, so they are independent and their count is the rank.
    """
    columns: dict[int, dict[int, Fraction]] = {}
    for (i, j), v in matrix.entries.items():
        columns.setdefault(j, {})[i] = v
    pivots: dict[int, dict[int, int]] = {}  # lowest row -> reduced column
    for j in sorted(columns):
        if len(pivots) == matrix.rows:
            break  # every row is a pivot, so every later column reduces to zero
        col = _integer_column(columns[j])
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
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
    return len(pivots)


def _integer_column(column: dict[int, Fraction]) -> dict[int, int]:
    """The column times the lcm of its entries' denominators."""
    scale = lcm(*(v.denominator for v in column.values()))
    if scale == 1:
        return {i: v.numerator for i, v in column.items()}
    return {i: v.numerator * (scale // v.denominator) for i, v in column.items()}


def kernel_basis(matrix: ExactMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column."""
    reduced, pivots, _ = _rref(matrix.row_dicts(), matrix.cols)
    pivot_set = set(pivots)
    free_cols = [j for j in range(matrix.cols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * matrix.cols
        vec[f] = Fraction(1)
        for row, pcol in zip(reduced, pivots):
            coeff = row.get(f)
            if coeff:
                vec[pcol] = -coeff
        basis.append(tuple(vec))
    return basis


def solve_in_image(matrix: ExactMatrix, target: Sequence[object]) -> Optional[tuple[Fraction, ...]]:
    """Some x with matrix @ x = target, or None when target is outside the image.

    Free variables are set to zero, so the returned solution is deterministic.
    """
    if len(target) != matrix.rows:
        raise ValueError("target length does not match row count")
    aug_col = matrix.cols
    rows = matrix.row_dicts()
    for i, value in enumerate(target):
        q = Fraction(value)
        if q:
            rows[i][aug_col] = q
    reduced, pivots, residue = _rref(rows, aug_col + 1, pivot_limit=aug_col)
    if residue:
        return None
    x = [Fraction(0)] * matrix.cols
    for row, pcol in zip(reduced, pivots):
        x[pcol] = row.get(aug_col, Fraction(0))
    return tuple(x)


class IncrementalRank:
    """Grow an independent set of vectors one at a time.

    Used to pick homology representatives: feed boundary generators first,
    then keep exactly the cycle vectors that still increase the rank.
    """

    def __init__(self, length: int):
        self.length = length
        self._rows: list[dict[int, Fraction]] = []  # echelon rows, pivot first

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vector: Iterable[object]) -> bool:
        work = {
            i: v if isinstance(v, (int, Fraction)) else Fraction(v)
            for i, v in enumerate(vector)
            if v
        }
        for row in self._rows:
            pivot = min(row)
            factor = work.get(pivot)
            if factor is None:
                continue
            for j, v in row.items():
                s = work.get(j, 0) - factor * v
                if s:
                    work[j] = s
                else:
                    work.pop(j, None)
        if not work:
            return False
        pivot = min(work)
        inv = Fraction(1) / work[pivot]
        self._rows.append({j: v * inv for j, v in work.items()})
        return True
