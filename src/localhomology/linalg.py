"""Exact linear algebra over the rationals.

All Betti-number computations here reduce to ranks, kernels and solves on
sparse signed incidence matrices. Vectors, and the columns an `ExactMatrix`
stores, have one form: {index: value} dicts of nonzero `int` or `Fraction`
values, to which every input is brought by the rule of `_vector` (boundary
matrices are built in it).

Kernels, solves and the ranks of all but graph-shaped matrices share one
exact elimination loop, `_reduce`: the columns are reduced left to right by
their lowest nonzero row, the standard boundary-matrix reduction, done
fraction-free so every entry stays a Python `int`. A matrix records at
construction whether it is integral, every stored value an `int` (every
boundary matrix is); its columns are then read as stored, while a column of
any other matrix is first scaled to integers by the lcm of its denominators
(`_scaled`). For kernels and solves each column also carries tags that
record the column operations applied to it (R = D V); a column whose rows
all cancel leaves a kernel vector, or a solution, in its tags. There is no
float, modular or approximate path, so no tolerance is ever tuned, and a
rank is the rank over the rationals even where torsion would change a rank
mod p.

`rank` and `kernel_basis` each have a second route, chosen from the columns
on every call, never by an option. A graph-shaped matrix, each of whose
columns is x·e_a or x·(e_a - e_b), is the incidence matrix of a graph up to
column scaling, and its rank is the size of a spanning forest, which a
union-find scan counts without arithmetic (`_forest_rank`); a two-entry
column whose entries do not sum to zero, such as e_a + e_b, sends the matrix
to elimination. Every ∂₁ is graph-shaped, and so is the ∂₂ of a vertex
star, whose columns lose the edge opposite the vertex. When every x is an
`int` ±1, as in every ∂₀ and ∂₁, `_forest_kernel` walks a forest instead of
eliminating and returns exactly the vectors elimination would, the
fundamental cycles of the forest. Solves and `IncrementalRank` keep a
matrix's pivots across calls and meet columns of every shape, so they
always eliminate.

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

from .errors import _require_count


class ExactMatrix:
    """Sparse matrix with exact rational entries, stored by column.

    `columns` maps each column index to that column's nonzero entries,
    {row: value}; all-zero columns are absent. Both constructors bring each
    column to `_vector`'s rule and share one store. Values given as int stay
    int, others become Fraction, and since Fraction(1) == 1 with equal
    hashes, equality and hashing ignore which. The same pass records whether
    the matrix is integral, every stored value an `int`. `entries`, the
    (row, col) -> value map, is built from the columns on each access.
    Immutable once constructed: nothing writes to the stored columns, which
    the reductions only read, and the one value a matrix gains later is its
    solve pivots (see the module docstring), so concurrent readers are safe.
    """

    __slots__ = ("rows", "cols", "columns", "_integral", "_solve_pivots")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple, object] | None = None):
        grouped: dict[int, dict[int, object]] = {}
        try:
            items = (entries or {}).items()
        except AttributeError as exc:
            raise ValueError(f"entries {entries!r} are not a {{(row, col): value}} mapping") from exc
        for key, value in items:
            if not isinstance(key, tuple) or len(key) != 2:
                raise ValueError(f"entry key {key!r} is not a (row, col) pair")
            i, j = key
            grouped.setdefault(j, {})[i] = value
        columns, integral = _columns(rows, cols, grouped.items())
        self.rows, self.cols, self.columns = rows, cols, columns
        self._integral, self._solve_pivots = integral, None

    @classmethod
    def from_columns(cls, columns: Sequence[Mapping[int, object]], rows: int) -> "ExactMatrix":
        """The matrix whose j-th column is the {row: value} vector columns[j]."""
        try:
            cols = len(columns)
        except TypeError as exc:
            raise ValueError(f"columns {columns!r} are not a sequence of {{row: value}} mappings") from exc
        return cls._stored(rows, cols, *_columns(rows, cols, enumerate(columns)))

    @classmethod
    def _stored(cls, rows: int, cols: int, columns: dict[int, dict[int, Fraction | int]], integral: bool) -> "ExactMatrix":
        """Unchecked: the columns are already in the stored form, as the library
        builds them, and `integral` says whether every stored value is an `int`."""
        self = object.__new__(cls)
        self.rows, self.cols, self.columns = rows, cols, columns
        self._integral, self._solve_pivots = integral, None
        return self

    @classmethod
    def _boundaries(
        cls, bases: Sequence[Sequence], columns: Sequence[dict[int, dict[int, int]]]
    ) -> tuple["ExactMatrix", ...]:
        """Unchecked: the integral boundary matrices of a chain complex, in one loop.

        Matrix k stores columns[k] as built, `int` values in the stored
        form, with one column per face of bases[k] and one row per face of
        bases[k - 1] (none for k = 0). It is `_stored` for every dimension
        at once, without a call per matrix.
        """
        out = []
        rows = 0
        new = object.__new__
        for basis, stored in zip(bases, columns):
            self = new(cls)
            self.rows = rows
            self.cols = rows = len(basis)
            self.columns = stored
            self._integral = True
            self._solve_pivots = None
            out.append(self)
        return tuple(out)

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
        if not isinstance(other, ExactMatrix):
            return NotImplemented
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


def _vector(vector: Mapping[int, object], size: int | None = None) -> tuple[dict[int, Fraction | int], bool]:
    """The nonzero entries of an {index: value} vector, as a new dict, and
    whether each of them is an `int`.

    The one input rule, which `ExactMatrix.__init__` and `from_columns`
    apply to each column, and `solve_in_image` and `IncrementalRank.add`
    to the vector they take: an index must be an `int` (not a bool) in
    range(size), or non-negative without a size (keys below zero are tags);
    zeros are dropped, `int` values stay `int`, others become `Fraction`.
    A vector that is not a mapping, a `str` or `bool` value (which
    `Fraction` would parse or take as 0 and 1), or a value `Fraction`
    refuses, raises `ValueError`.
    """
    out = {}
    integral = True
    try:
        items = vector.items()
    except AttributeError as exc:
        raise ValueError(f"vector {vector!r} is not an {{index: value}} mapping") from exc
    for i, value in items:
        if type(i) is not int or i < 0 or (size is not None and i >= size):
            raise ValueError(f"vector index {i!r} is not an int in range")
        if type(value) is not int:
            if isinstance(value, (str, bool)):
                raise ValueError(f"vector value {value!r} is not a number")
            try:
                value = Fraction(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"vector value {value!r} is not a rational number") from exc
            if value:
                integral = False
        if value:
            out[i] = value
    return out, integral


def _columns(rows: int, cols: int, columns: Iterable[tuple[int, Mapping[int, object]]]) -> tuple[dict[int, dict[int, Fraction | int]], bool]:
    """(column index, {row: value}) pairs in the stored form, by `_vector`'s
    rule, and whether every stored value is an `int`. Each column index
    must be an `int` in range(cols).
    """
    _require_count(rows, "matrix rows")
    _require_count(cols, "matrix cols")
    stored = {}
    integral = True
    for j, raw in columns:
        if type(j) is not int or not 0 <= j < cols:
            raise ValueError(f"column index {j!r} outside {rows}x{cols} matrix")
        column, column_integral = _vector(raw, rows)
        if column:
            stored[j] = column
            integral = integral and column_integral
    return stored, integral


def _scaled(column: Mapping[int, Fraction | int], tag: int | None = None) -> dict[int, int]:
    """The column times the lcm of its entries' denominators, as a new dict.

    With a tag key, the column also records that scale at the tag, so a
    tagged column always holds the coefficients that produce it.
    """
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
        column = matrix.columns.get(j, {})
        col = {**column, -1 - j: 1} if matrix._integral else _scaled(column, -1 - j)
        if not _add_pivot(col, pivots):
            cancelled.append(col)
    return pivots, cancelled


def _forest_rank(columns: Iterable[Mapping[int, Fraction | int]], rows: int) -> int | None:
    """The rank of graph-shaped columns by a union-find scan, or None if a column is not.

    A column {a: x} is an edge from row a to a ground node -1, and a column
    {a: x, b: -x} an edge from a to b; any other column gives None. The
    count of edges that join two trees is the rank (see `rank`). Once it
    reaches `rows` no later column, of any shape, can raise it, so the scan
    stops there.
    """
    parent: dict[int, int] = {}  # a node absent here is a root
    get = parent.get
    merged = 0
    for column in columns:
        if merged == rows:
            break
        if len(column) == 1:
            (a,) = column
            b = -1
        elif len(column) == 2:
            (a, x), (b, y) = column.items()
            if x + y:
                return None
        else:
            return None
        while a in parent:  # to the roots, halving the paths
            up = parent[a]
            parent[a] = a = get(up, up)
        while b in parent:
            up = parent[b]
            parent[b] = b = get(up, up)
        if a != b:
            parent[a] = b
            merged += 1
    return merged


def rank(matrix: ExactMatrix) -> int:
    """Rank over the rationals.

    A graph-shaped matrix, each of whose columns is x·e_a or x·(e_a - e_b)
    with x a nonzero rational, is ranked by `_forest_rank` as the size of a
    spanning forest of its graph, whose nodes are the rows and a ground node
    joined to each row a of an x·e_a column. Scaling a column keeps the
    rank, so take every x = 1 and add a ground row holding -1 in each x·e_a
    column. That gives the signed incidence matrix of the graph, whose rank
    is its node count less its component count: the edges of a spanning
    forest are independent (a leaf's row meets only one of them), and every
    other edge closes a cycle whose signed sum is zero. In it the rows of
    each component sum to zero, so the ground row is minus the sum of the
    other rows of its component, and deleting it keeps the rank
    (Kirchhoff's grounded incidence matrix; Oxley, *Matroid Theory*, §5.1).

    Every other matrix is reduced by fraction-free column reduction over the
    integers. Scaling a column by a nonzero integer keeps the rank, and so
    does replacing column j by a*col_j - b*col_i when a, the pivot entry of
    column i at j's lowest row, is nonzero. Reduced nonzero columns have
    distinct lowest rows, so they are independent and their count is the rank.
    An integral matrix's columns are read as stored: a column whose lowest
    row has no pivot yet becomes that pivot itself, uncopied, since
    `_reduce` only reads pivots; only a column that meets a pivot is copied
    and reduced.
    """
    if not matrix.columns:
        return 0
    forest = _forest_rank(matrix.columns.values(), matrix.rows)
    if forest is not None:
        return forest
    pivots: dict[int, dict[int, int]] = {}
    integral = matrix._integral
    for j in sorted(matrix.columns):
        if len(pivots) == matrix.rows:
            break  # every row is a pivot, so every later column reduces to zero
        column = matrix.columns[j]
        if not integral:
            _add_pivot(_scaled(column), pivots)
        elif (low := max(column)) not in pivots:
            pivots[low] = column
        else:
            _add_pivot(dict(column), pivots)
    return len(pivots)


def _forest_kernel(matrix: ExactMatrix) -> list[dict[int, int]] | None:
    """`kernel_basis` of a unit graph-shaped matrix by a forest walk, or None if it is not one.

    Each column must be ±e_a or ±(e_a - e_b) with `int` entries; it is read
    as c·(e_p - e_q) with p > q, where q = -1, a ground node below every
    row, stands for ±e_a. Elimination would reduce it against the pivot
    s·(e_p - e_r) stored at p: that pivot entry is s = ±1, so the step is
    col - c·s·pivot with no scaling and no gcd, and leaves c·(e_r - e_q).
    So the walk only moves the top endpoint to r, or, when r < q, swaps the
    ends and flips c, and subtracts c·s times the pivot's tags. The column
    stops as a new pivot at a free top row, or leaves a kernel vector when
    r == q; its own tag stays 1, so that vector is already primitive.
    """
    if not matrix._integral:
        return None
    columns = matrix.columns
    pivots: dict[int, tuple[int, int, dict[int, int]]] = {}  # top row -> (other end, sign, tags)
    basis = []
    for j in range(matrix.cols):
        tags = {j: 1}
        column = columns.get(j)
        if column is None:
            basis.append(tags)
            continue
        if len(column) == 1:
            ((p, c),) = column.items()
            q = -1
        elif len(column) == 2:
            (p, c), (q, d) = column.items()
            if c + d:
                return None
            if p < q:
                p, q, c = q, p, d
        else:
            return None
        if c != 1 and c != -1:
            return None
        while (pivot := pivots.get(p)) is not None:
            r, s, held = pivot
            b = c * s
            for k, v in held.items():
                t = tags.get(k, 0) - b * v
                if t:
                    tags[k] = t
                else:
                    del tags[k]
            if r == q:
                basis.append(tags)
                break
            if r > q:
                p = r
            else:
                p, q, c = q, r, -c
        else:
            pivots[p] = (q, c, tags)
    return basis


def kernel_basis(matrix: ExactMatrix) -> list[dict[int, int]]:
    """Basis of the right null space, one primitive integer vector per non-pivot column.

    Each is a {column: value} vector. That of column j is nonzero at j,
    positive there, and otherwise supported on pivot columns left of j, so
    the vectors are independent. These conditions fix each vector, so the
    two routes of the module docstring, `_forest_kernel`'s walk and tagged
    elimination, return the same ones.
    """
    forest = _forest_kernel(matrix)
    if forest is not None:
        return forest
    basis = []
    for tags in _tagged_reduction(matrix)[1]:
        g = gcd(*tags.values())
        basis.append({-1 - tag: v // g for tag, v in tags.items()})
    return basis


def solve_in_image(matrix: ExactMatrix, target: Mapping[int, object]) -> Optional[dict[int, Fraction]]:
    """Some x with matrix @ x = target, or None when target is outside the image.

    target is a {row: value} vector; x, a {column: value} vector, is
    supported on the pivot columns, those independent of the columns left
    of them, so the returned solution is deterministic. The pivots are
    built on the first solve and kept on the matrix (see the module
    docstring).
    """
    n = matrix.cols
    col, integral = _vector(target, matrix.rows)
    if integral:
        col[-1 - n] = 1
    else:
        col = _scaled(col, -1 - n)
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

        The vector, such as a column of `ExactMatrix.columns`, is only read,
        and the pivot kept is always a copy. A dict of `int` values at `int`
        keys at least 0, as every boundary column and kernel vector is, is
        copied without its zeros in one pass and reduced as it is. At the
        first other key or value the partial copy is dropped, and that
        vector, like any other mapping, takes `_vector`'s rule and then
        `_scaled`, so it is converted, or refused with `ValueError`, exactly
        as a solve's target.
        """
        if isinstance(vector, dict):
            col = {}
            for i, value in vector.items():
                if type(i) is not int or i < 0 or type(value) is not int:
                    break
                if value:
                    col[i] = value
            else:
                low = _reduce(col, self._pivots)
                if low is None:
                    return False
                self._pivots[low] = col
                return True
        col, integral = _vector(vector)
        return _add_pivot(col if integral else _scaled(col), self._pivots)
