import random
from fractions import Fraction
from math import gcd

import pytest

from localhomology import (
    ExactMatrix,
    kernel_basis,
    rank,
    relative_chain_complex,
    solve_in_image,
)
from localhomology.linalg import IncrementalRank, _forest_kernel, _forest_rank

from util import (
    apply,
    dense_vector,
    elimination_kernel,
    from_rows,
    identity_matrix,
    oracle_matmul,
    oracle_rank_dense,
    oracle_rank_minors,
    random_complex,
    random_open_set,
    reference_add,
    sparse_vector,
    to_dense,
    torus_complex,
    transpose,
)


def random_matrix(rng, rows, cols, lo=-2, hi=2) -> ExactMatrix:
    return from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_entry_bounds_rejected():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, {(0, -1): 1})
    for column in ({2: 1}, {-1: 1}, {2: 0}):
        with pytest.raises(ValueError):
            ExactMatrix.from_columns([column], 2)
    with pytest.raises(ValueError):
        ExactMatrix(-1, 0)
    with pytest.raises(ValueError):
        ExactMatrix.from_columns([], -1)


@pytest.mark.parametrize("index", [0.5, 0.0, "0", True], ids=["half", "float_zero", "str", "bool"])
def test_index_that_is_not_an_int_rejected(index):
    # Only an int is an index; a float, str or bool one would be stored (or
    # compared) as a position, as 0.5 was.
    for position in ((index, 0), (0, index)):
        with pytest.raises(ValueError):
            ExactMatrix(2, 2, {position: 1})
    with pytest.raises(ValueError):
        ExactMatrix.from_columns([{index: 1}], 2)
    inc = IncrementalRank()
    with pytest.raises(ValueError):
        inc.add({index: 1})
    assert inc.rank == 0
    with pytest.raises(ValueError):
        solve_in_image(identity_matrix(2), {index: 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExactMatrix(2, 2.5, {(0, 2): 1}),
        lambda: ExactMatrix(1.5, 2, {(1, 0): 1}),
        lambda: ExactMatrix.zeros(2.0, 2),
        lambda: ExactMatrix.from_columns([{0: 1}], True),
        lambda: ExactMatrix("2", 2),
        lambda: ExactMatrix(2, 2, {5: 1}),
        lambda: ExactMatrix(2, 2, {(0, 1, 1): 1}),
    ],
    ids=["float_cols", "float_rows", "float_zeros", "bool_rows", "str_rows", "int_key", "triple_key"],
)
def test_shape_and_key_that_are_not_ints_rejected(build):
    # A dimension is an int at least 0 and a key a (row, col) pair; a float
    # dimension once gave shape (2, 2.5) and stored a column at 2.
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ExactMatrix(2, 2, [((0, 0), 1)]),
        lambda: ExactMatrix.from_columns([[1]], 2),
        lambda: solve_in_image(identity_matrix(2), [1]),
        lambda: IncrementalRank().add([1]),
        lambda: ExactMatrix(2, 2, {(0, 0): None}),
        lambda: ExactMatrix(2, 2, {(0, 0): float("inf")}),
        lambda: ExactMatrix.from_columns([{0: None}], 2),
        lambda: solve_in_image(identity_matrix(2), {0: float("inf")}),
        lambda: IncrementalRank().add({0: None}),
        lambda: ExactMatrix.from_columns(5, 2),
        lambda: ExactMatrix.from_columns(None, 2),
    ],
    ids=[
        "entries_list", "column_list", "target_list", "add_list", "entry_none", "entry_inf",
        "column_none", "target_inf", "add_none", "columns_int", "columns_none",
    ],
)
def test_input_that_is_not_a_mapping_of_rationals_rejected(call):
    # A list once raised a bare AttributeError from .items(), None a
    # TypeError and inf an OverflowError from Fraction; columns without a
    # length a bare TypeError from len.
    with pytest.raises(ValueError, match="not an? "):
        call()


@pytest.mark.parametrize("value", ["1/2", "3", "", True, False], ids=["str_half", "str_int", "str_empty", "true", "false"])
def test_value_that_is_a_str_or_bool_rejected(value):
    # Fraction parses a str and takes a bool as 0 or 1: "1/2" was once
    # stored as Fraction(1, 2) and True as Fraction(1, 1).
    builds = [
        lambda: ExactMatrix(2, 2, {(0, 0): value}),
        lambda: ExactMatrix.from_columns([{0: value}], 2),
        lambda: solve_in_image(identity_matrix(2), {0: value}),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="is not a number"):
            build()
    inc = IncrementalRank()
    with pytest.raises(ValueError, match="is not a number"):
        inc.add({0: value})
    assert inc.rank == 0


def test_rank_zero_matrix():
    for shape in [(0, 0), (3, 5), (4, 1)]:
        assert rank(ExactMatrix.zeros(*shape)) == 0


def test_rank_vertex_star_boundary_matrix():
    # First row all ones, then a negated identity: the boundary of a closed
    # vertex star in a graph. Injective, so full column rank.
    for d in [1, 2, 5, 9]:
        rows = [[1] * d] + [[-1 if j == i else 0 for j in range(d)] for i in range(d)]
        assert rank(from_rows(rows)) == d


def test_rank_random_vs_independent_oracles():
    rng = random.Random(7)
    for _ in range(40):
        data = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
        assert rank(from_rows(data)) == oracle_rank_dense(data)
    for _ in range(20):
        data = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
        assert rank(from_rows(data)) == oracle_rank_minors(data)


def test_rank_transpose():
    rng = random.Random(11)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rank(m) == rank(transpose(m))


def test_rank_product_bound():
    rng = random.Random(13)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        b = random_matrix(rng, a.cols, rng.randint(1, 6))
        assert rank(a @ b) <= min(rank(a), rank(b))


def test_rank_fraction_entries_with_dependent_columns():
    # Column scaling by denominators must keep the rank; forced combinations
    # of earlier columns must reduce to zero.
    rng = random.Random(17)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        data = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        for j in range(1, cols):
            if rng.random() < 0.5:
                a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                b = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                i1, i2 = rng.randrange(j), rng.randrange(j)
                for row in data:
                    row[j] = a * row[i1] + b * row[i2]
        assert rank(from_rows(data)) == oracle_rank_dense(data)


def test_rank_integer_entries_with_non_unit_pivots():
    # Entries up to 5 in size force pivots other than +-1, so the column
    # scaling and gcd division both run.
    rng = random.Random(19)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), -5, 5)
        assert rank(m) == oracle_rank_dense(to_dense(m))


def test_rank_handles_fractions():
    m = from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(m) == 1


def test_rank_with_large_prime_denominator():
    m = from_rows([[Fraction(1, 2**31 - 1), 1], [0, 1]])
    assert rank(m) == 2


# -- graph-shaped matrices: the spanning-forest rank ---------------------------

SCALES = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]


def takes_forest(matrix: ExactMatrix) -> bool:
    return _forest_rank(matrix.columns.values(), matrix.rows) is not None


def random_graph_shaped(rng, rows, cols, scales=SCALES) -> list[dict]:
    """Columns x*e_a and x*(e_a - e_b), x drawn from scales, over a random subset of the rows.

    Rows outside the subset stay untouched; a small subset repeats edges
    and closes cycles, some columns are empty, and some repeat an earlier
    one rescaled.
    """
    used = rng.sample(range(rows), rng.randint(0, rows))
    columns = []
    for _ in range(cols):
        x = rng.choice(scales)
        draw = rng.random()
        if not used or draw < 0.1:
            columns.append({})
        elif columns and draw < 0.25:
            columns.append({i: x * v for i, v in rng.choice(columns).items()})
        elif len(used) < 2 or draw < 0.45:
            columns.append({rng.choice(used): x})  # joined to the ground
        else:
            a, b = rng.sample(used, 2)
            columns.append({a: x, b: -x})
    return columns


def test_rank_of_graph_shaped_matrices_matches_dense_oracle():
    rng = random.Random(61)
    for _ in range(300):
        rows, cols = rng.randint(0, 8), rng.randint(0, 12)
        m = ExactMatrix.from_columns(random_graph_shaped(rng, rows, cols), rows)
        assert takes_forest(m)
        assert rank(m) == oracle_rank_dense(to_dense(m))


def test_rank_of_near_graph_shaped_matrices_matches_dense_oracle():
    # Two entries that do not sum to zero are no graph edge: a triangle of
    # e_a + e_b columns has full rank 3, where the triangle graph has 2.
    triangle = ExactMatrix.from_columns([{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: 1}], 3)
    assert not takes_forest(triangle) and rank(triangle) == 3
    unbalanced = ExactMatrix.from_columns([{0: 1, 1: -2}, {0: 1, 1: -1}], 2)
    assert not takes_forest(unbalanced) and rank(unbalanced) == 2
    rng = random.Random(67)
    for _ in range(200):
        rows, cols = rng.randint(2, 7), rng.randint(1, 10)
        columns = random_graph_shaped(rng, rows, cols)
        a, b = rng.sample(range(rows), 2)
        x = rng.choice(SCALES)
        near = rng.choice([{a: x, b: x}, {a: x, b: -2 * x}])
        columns.insert(rng.randint(0, cols), near)
        m = ExactMatrix.from_columns(columns, rows)
        assert rank(m) == oracle_rank_dense(to_dense(m))


def test_rank_of_every_relative_boundary_matches_dense_oracle():
    # ∂1 of every relative chain complex is graph-shaped and takes the
    # forest; higher boundaries mostly take elimination. Both must agree
    # with the dense oracle.
    rng = random.Random(71)
    routes = {True: 0, False: 0}
    for _ in range(120):
        x = random_complex(rng, rng.randint(3, 8), rng.randint(1, 6), 4)
        for excluded in (random_open_set(rng, x).complement(), x.empty_set()):
            for boundary in relative_chain_complex(x, excluded).boundaries:
                if boundary.columns:
                    routes[takes_forest(boundary)] += 1
                assert rank(boundary) == oracle_rank_dense(to_dense(boundary))
    assert min(routes.values()) >= 50


def test_kernel_identity_is_empty():
    assert kernel_basis(identity_matrix(4)) == []


def test_kernel_one_by_two():
    (vec,) = kernel_basis(from_rows([[1, 1]]))
    assert vec[0] == -vec[1] != 0


def test_kernel_of_circle_boundary():
    # Triangle circuit on vertices a<b<c; columns in lexicographic edge
    # order (ab, ac, bc), rows (a, b, c).
    boundary = from_rows(
        [
            [-1, -1, 0],
            [1, 0, -1],
            [0, 1, 1],
        ]
    )
    basis = kernel_basis(boundary)
    assert len(basis) == 1
    (cycle,) = basis
    assert all(x == 0 for x in apply(boundary, dense_vector(cycle, 3)))
    assert cycle == {0: 1, 1: -1, 2: 1}  # ab - ac + bc, positive at its own column bc


def random_fraction_matrix(rng, rows, cols) -> ExactMatrix:
    return from_rows(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    )


def test_kernel_vectors_always_in_kernel():
    # Entries in +-2, entries in +-5 (non-unit pivots) and Fraction entries.
    rng = random.Random(23)
    draws = [
        lambda r, c: random_matrix(rng, r, c),
        lambda r, c: random_matrix(rng, r, c, -5, 5),
        lambda r, c: random_fraction_matrix(rng, r, c),
    ]
    for draw in draws:
        for _ in range(25):
            m = draw(rng.randint(1, 6), rng.randint(1, 7))
            basis = kernel_basis(m)
            assert rank(m) + len(basis) == m.cols
            assert rank(ExactMatrix.from_columns(basis, m.cols)) == len(basis)
            for vec in basis:
                values = list(vec.values())
                assert all(type(x) is int and x != 0 for x in values) and gcd(*values) == 1
                assert vec[max(vec)] > 0  # positive at its own column, the last it touches
                assert all(x == 0 for x in apply(m, dense_vector(vec, m.cols)))


# -- unit graph-shaped matrices: kernels by the forest walk -------------------


def takes_forest_kernel(matrix: ExactMatrix) -> bool:
    return _forest_kernel(matrix) is not None


def random_unit_graph_matrix(rng) -> ExactMatrix:
    """Columns ±e_a and ±(e_a - e_b); 0 rows and 0 columns are both drawn."""
    rows, cols = rng.randint(0, 8), rng.randint(0, 14)
    return ExactMatrix.from_columns(random_graph_shaped(rng, rows, cols, (1, -1)), rows)


def test_kernel_of_unit_graph_matrices_matches_elimination():
    # Every ∂0 and ∂1 of a relative chain complex or a star, and random unit
    # graph matrices, take the forest walk; the rest of the boundaries
    # mostly take elimination. The vectors must be the ones elimination
    # gives, with int values.
    rng = random.Random(73)
    matrices = []
    for _ in range(150):
        x = random_complex(rng, rng.randint(3, 9), rng.randint(1, 7), 5)
        faces = sorted(x.all_faces())
        for excluded in (x.empty_set(), random_open_set(rng, x).complement(), x.star([rng.choice(faces)]).complement()):
            boundaries = relative_chain_complex(x, excluded).boundaries
            assert all(map(takes_forest_kernel, boundaries[:2]))
            matrices.extend(boundaries)
    matrices += [random_unit_graph_matrix(rng) for _ in range(400)]
    matrices += [ExactMatrix.zeros(0, 0), ExactMatrix.zeros(0, 3), ExactMatrix.zeros(4, 0)]
    routes = {True: 0, False: 0}
    for m in matrices:
        routes[takes_forest_kernel(m)] += 1
        basis = kernel_basis(m)
        assert basis == elimination_kernel(m)
        assert all(type(v) is int for vec in basis for v in vec.values())
    assert min(routes.values()) >= 50


@pytest.mark.parametrize(
    "column",
    [{1: 2}, {0: -2, 2: 2}, {0: 1, 2: 1}, {1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}, {0: 1, 1: -1, 2: 1}],
    ids=["2e_a", "2(e_a-e_b)", "e_a+e_b", "fraction e_a", "fraction e_a-e_b", "three entries"],
)
def test_kernel_of_other_columns_takes_elimination(column):
    # One such column anywhere sends the whole matrix to elimination, whose
    # vectors still fill the kernel.
    rng = random.Random(79)
    for _ in range(20):
        m = random_unit_graph_matrix(rng)
        columns = [m.columns.get(j, {}) for j in range(m.cols)]
        columns.insert(rng.randint(0, len(columns)), column)
        m = ExactMatrix.from_columns(columns, max(m.rows, 3))
        assert not takes_forest_kernel(m)
        basis = kernel_basis(m)
        assert basis == elimination_kernel(m)
        assert rank(m) + len(basis) == m.cols
        assert all(x == 0 for vec in basis for x in apply(m, dense_vector(vec, m.cols)))


def test_solve_identity():
    m = identity_matrix(3)
    assert solve_in_image(m, {0: 3, 1: -1, 2: 2}) == {0: 3, 1: -1, 2: 2}


def test_solve_zero_matrix_inconsistent():
    assert solve_in_image(ExactMatrix.zeros(2, 3), {0: 1}) is None
    assert solve_in_image(ExactMatrix.zeros(2, 3), {0: 0, 1: 0}) == {}
    for target in ({2: 1}, {-1: 1}, {2: 0}):
        with pytest.raises(ValueError):
            solve_in_image(ExactMatrix.zeros(2, 3), target)


def test_solve_random_consistent_systems():
    # Targets in the image and arbitrary targets; None exactly when the
    # target raises the rank.
    rng = random.Random(29)
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x0 = [rng.randint(-3, 3) for _ in range(m.cols)]
        for b in (apply(m, x0), [rng.randint(-3, 3) for _ in range(m.rows)]):
            x = solve_in_image(m, sparse_vector(b))
            augmented = [row + [b[i]] for i, row in enumerate(to_dense(m))]
            outside = oracle_rank_dense(augmented) > oracle_rank_dense(to_dense(m))
            assert (x is None) == outside
            if x is not None:
                assert all(x.values())
                assert apply(m, dense_vector(x, m.cols)) == tuple(b)
            outcomes[outside] += 1
    assert min(outcomes.values()) >= 10


def test_solves_on_one_matrix_match_solves_on_fresh_equal_matrices():
    # The first solve keeps the matrix's reduction on it. Later solves on the
    # same object, inside and outside the image in turn, must answer as on a
    # fresh equal matrix and leave rank and kernel as they were.
    rng = random.Random(47)
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(1, 4))
        before = (rank(m), kernel_basis(m))
        for i in range(6):
            if i % 2:
                b = [rng.randint(-3, 3) for _ in range(m.rows)]
            else:
                b = apply(m, [rng.randint(-3, 3) for _ in range(m.cols)])
            x = solve_in_image(m, sparse_vector(b))
            assert x == solve_in_image(ExactMatrix(m.rows, m.cols, m.entries), sparse_vector(b))
            outcomes[x is None] += 1
        assert (rank(m), kernel_basis(m)) == before
    assert min(outcomes.values()) >= 30


def test_matmul_and_apply_agree():
    rng = random.Random(31)
    a = random_matrix(rng, 4, 5)
    b = random_matrix(rng, 5, 3)
    product = a @ b
    for j in range(3):
        col = [to_dense(b)[i][j] for i in range(5)]
        expect = apply(a, col)
        assert tuple(to_dense(product)[i][j] for i in range(4)) == expect



def test_matmul_refuses_a_non_matrix_operand():
    m = from_rows([[1, 2], [3, 4]])
    for other in (3, [[1], [0]], None):
        with pytest.raises(TypeError):
            m @ other
    with pytest.raises(ValueError, match="inner dimensions"):
        m @ from_rows([[1, 2]])


def test_incremental_rank():
    inc = IncrementalRank()
    assert inc.add({0: 1})
    assert not inc.add({0: 2})
    assert inc.add({0: 1, 1: 1})
    assert inc.add({2: 5})
    assert not inc.add({0: 3, 1: 7, 2: 1})
    assert inc.rank == 3
    # Seeded sequences, half of them combinations of accepted vectors.
    rng = random.Random(37)
    for _ in range(20):
        length = rng.randint(1, 6)
        inc = IncrementalRank()
        accepted = []
        for _ in range(10):
            if accepted and rng.random() < 0.5:
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in accepted]
                vec = [sum(c * v[i] for c, v in zip(coeffs, accepted)) for i in range(length)]
            else:
                vec = [rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(length)]
            grows = oracle_rank_dense(accepted + [vec]) > len(accepted)
            assert inc.add(sparse_vector(vec)) == grows
            if grows:
                accepted.append(vec)
        assert inc.rank == len(accepted)


def test_incremental_rank_drops_explicit_zeros():
    # A zero value is no entry: it must not become a pivot row.
    inc = IncrementalRank()
    assert not inc.add({0: 0, 1: 0})
    assert inc.add({0: 1})
    assert not inc.add({0: 2, 1: 0})
    assert inc.rank == 1


def test_incremental_rank_rejects_negative_indices():
    # Keys below zero are the reduction's tags, so they are no vector index.
    inc = IncrementalRank()
    for vector in ({-1: 1}, {0: 1, -2: 3}):
        with pytest.raises(ValueError):
            inc.add(vector)
    assert inc.rank == 0


def test_incremental_rank_takes_float_values_as_fractions():
    inc = IncrementalRank()
    assert inc.add({0: 0.5})
    assert not inc.add({0: 2})
    assert inc.add({0: 0.25, 1: 1.5})
    assert not inc.add({0: Fraction(1, 4), 1: Fraction(3, 2)})
    assert inc.rank == 2


def typed_pivots(pivots: dict) -> list:
    """Each pivot's lowest row and its entries in stored order, with their types."""
    return [(low, [(i, v, type(v)) for i, v in col.items()]) for low, col in pivots.items()]


def test_incremental_rank_add_matches_the_general_route():
    # add copies an all-int dict in one pass and reduces the copy as it is;
    # any other vector takes _vector, then _scaled. On seeded sequences of
    # all-int vectors with explicit zeros, Fraction, float and int mixed
    # with Fraction in one vector, both give reference_add's answers and
    # pivots. Each vector is changed after add: no later answer may move.
    rng = random.Random(71)

    def entry(kind):
        v = rng.choice([0, 0, 1, -1, 2, -3])
        if kind == "fraction":
            return Fraction(v, rng.randint(1, 3))
        if kind == "float":
            return v / rng.choice([1, 2, 4])
        if kind == "mixed":
            return rng.choice([v, Fraction(v, rng.randint(2, 3))])
        return v

    seen = {"int_with_zero": 0, "fraction": 0, "float": 0, "mixed": 0, "kept": 0, "dropped": 0}
    for _ in range(60):
        length = rng.randint(1, 7)
        inc, pivots = IncrementalRank(), {}
        accepted = []
        for _ in range(12):
            kind = rng.choice(["int", "fraction", "float", "mixed"])
            if accepted and rng.random() < 0.4:
                coeffs = [rng.randint(-2, 2) for _ in accepted]
                vector = {i: sum(c * a[i] for c, a in zip(coeffs, accepted)) for i in range(length)}
            else:
                vector = {i: entry(kind) for i in range(length) if rng.random() < 0.7}
            types = {type(v) for v in vector.values()}
            seen["int_with_zero"] += types == {int} and 0 in vector.values()
            seen["fraction"] += types == {Fraction}
            seen["float"] += float in types
            seen["mixed"] += types == {int, Fraction}
            reference = dict(vector)
            grows = inc.add(vector)
            assert grows == reference_add(pivots, reference)
            assert typed_pivots(inc._pivots) == typed_pivots(pivots)
            seen["kept" if grows else "dropped"] += 1
            if grows:
                accepted.append(dense_vector(reference, length))
            for i in vector:  # the caller's dict is no pivot
                vector[i] = 7
            vector[length] = 1
        assert inc.rank == len(pivots) == len(accepted)
        assert typed_pivots(inc._pivots) == typed_pivots(pivots)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize(
    "vector",
    [{0: 1, -1: 1}, {0: 1, 1.5: 1}, {0: 1, "1": 1}, {0: 1, True: 1}, {0: 1, 1: True}, {0: 1, 1: False}],
    ids=["negative_key", "float_key", "str_key", "bool_key", "true_value", "false_value"],
)
def test_incremental_rank_refuses_a_bad_entry_after_a_valid_one(vector):
    # The one-pass copy meets the valid entry first, then drops its copy
    # and leaves the refusal to _vector; nothing is kept.
    inc = IncrementalRank()
    assert inc.add({1: 2, 2: -1})
    with pytest.raises(ValueError):
        inc.add(vector)
    assert typed_pivots(inc._pivots) == [(2, [(1, 2, int), (2, -1, int)])]


# -- int-or-Fraction entries ---------------------------------------------------


def as_fractions(data):
    return [[Fraction(x) for x in row] for row in data]


def test_int_entries_stay_int():
    m = ExactMatrix(2, 3, {(0, 0): 1, (1, 2): -2, (0, 1): Fraction(3), (1, 1): 0.5, (1, 0): 0})
    assert {p: type(v) for p, v in m.entries.items()} == {
        (0, 0): int, (1, 2): int, (0, 1): Fraction, (1, 1): Fraction
    }
    assert m.entries[(1, 1)] == Fraction(1, 2)
    rows = from_rows([[1, 0, -1], [0, 2, Fraction(1, 3)]])
    assert [type(v) for _, v in sorted(rows.entries.items())] == [int, int, int, Fraction]
    cols = ExactMatrix.from_columns([{0: 1}, {1: -3}, {0: Fraction(1, 3)}], 2)
    assert [type(v) for _, v in sorted(cols.entries.items())] == [int, Fraction, int]
    # Boundary matrices hold their signs as ints.
    chain = relative_chain_complex(torus_complex(), [])
    assert all(type(v) is int for b in chain.boundaries for v in b.entries.values())


def test_int_and_fraction_copies_are_equal_and_hash_alike():
    rng = random.Random(41)
    for _ in range(20):
        cols = rng.randint(1, 5)
        data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 5))]
        ints, fracs = from_rows(data), from_rows(as_fractions(data))
        assert all(type(v) is int for v in ints.entries.values())
        assert all(type(v) is Fraction for v in fracs.entries.values())
        assert ints == fracs and hash(ints) == hash(fracs)


def fraction_copy(matrix: ExactMatrix) -> ExactMatrix:
    """The same matrix with every value a Fraction."""
    columns = [{i: Fraction(v) for i, v in matrix.columns.get(j, {}).items()} for j in range(matrix.cols)]
    return ExactMatrix.from_columns(columns, matrix.rows)


def chain_matrices(rng, count) -> list[ExactMatrix]:
    """Boundary matrices as the library stores them, of seeded random
    complexes relative to nothing and to the complement of an open set."""
    matrices = []
    for _ in range(count):
        x = random_complex(rng, rng.randint(3, 8), rng.randint(1, 6), 5)
        for excluded in (x.empty_set(), random_open_set(rng, x).complement()):
            matrices.extend(relative_chain_complex(x, excluded).boundaries)
    return matrices


def test_int_and_fraction_copies_reduce_alike():
    # rank, kernel_basis, solve_in_image and IncrementalRank.add see the same
    # matrices whichever type the values have: an int copy is integral and
    # read as stored, a Fraction copy is scaled by its lcm. The dense
    # matrices are int copies (half with a dependent column); the chain
    # matrices are the library's own.
    rng = random.Random(43)
    int_copies = chain_matrices(rng, 20)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            for row in data:
                row.append(a * row[0] + b * row[-1])
        int_copies.append(from_rows(data))
    for ints in int_copies:
        fracs = fraction_copy(ints)
        assert ints._integral and fracs._integral == (not ints.columns)
        assert rank(ints) == rank(fracs) == oracle_rank_dense(to_dense(ints))
        assert kernel_basis(ints) == kernel_basis(fracs)
        x0 = [rng.randint(-3, 3) for _ in range(ints.cols)]
        for target in (apply(ints, x0), [rng.randint(-3, 3) for _ in range(ints.rows)]):
            assert solve_in_image(ints, sparse_vector(target)) == solve_in_image(fracs, sparse_vector(target))
        # The columns, then random vectors: the same ones accepted.
        vectors = list(ints.columns.values())
        vectors += [sparse_vector([rng.randint(-2, 2) for _ in range(ints.rows)]) for _ in range(3)]
        by_int, by_fraction = IncrementalRank(), IncrementalRank()
        accepts = [by_int.add(v) for v in vectors]
        assert accepts == [by_fraction.add({i: Fraction(x) for i, x in v.items()}) for v in vectors]
        assert by_int.rank == rank(ints) + accepts[len(ints.columns):].count(True)


# -- storage by column ---------------------------------------------------------

ENTRY_CHOICES = [0, 0, 0, 1, -1, 2, -5, Fraction(1, 2), Fraction(-2, 3), Fraction(4), 1.5]


def test_three_constructions_agree_and_entries_round_trip():
    # From (row, col) entries and {row: value} columns (with some explicit
    # zeros) the same matrix comes out, holding only its nonzero columns;
    # entries rebuilds it, and A @ B matches the dense oracle.
    rng = random.Random(53)
    for _ in range(80):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        dense = [[rng.choice(ENTRY_CHOICES) for _ in range(cols)] for _ in range(rows)]
        dense_columns = [[dense[i][j] for i in range(rows)] for j in range(cols)]
        dict_columns = [
            {i: v for i, v in enumerate(column) if v or rng.random() < 0.3}
            for column in dense_columns
        ]
        nonzero = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
        m = ExactMatrix(rows, cols, nonzero)
        assert m == ExactMatrix.from_columns(dict_columns, rows)
        assert m.shape == (rows, cols) and m.nnz == len(nonzero)
        assert all(m.columns.values()) and all(0 <= j < cols for j in m.columns)
        assert m.entries == nonzero and ExactMatrix(rows, cols, m.entries) == m
        # Integer values stored as Fraction: equal, and hashed alike.
        as_fraction = {p: Fraction(v) if v == int(v) else v for p, v in nonzero.items()}
        assert ExactMatrix(rows, cols, as_fraction) == m
        assert hash(ExactMatrix(rows, cols, as_fraction)) == hash(m)
        inner = rng.randint(0, 4)
        other = [[rng.choice(ENTRY_CHOICES) for _ in range(inner)] for _ in range(cols)]
        assert to_dense(m @ from_rows(other, inner)) == oracle_matmul(dense, other, inner)


def test_reductions_leave_stored_columns_alone():
    # rank, kernel_basis, two solves and IncrementalRank fed the stored
    # columns themselves: afterwards every column still holds the same
    # values of the same types. The library's chain matrices are integral
    # and read as stored, so rank's pivots are their column dicts; entries
    # in +-5 force non-unit pivot steps, which scale columns in place.
    rng = random.Random(59)
    chain = chain_matrices(rng, 30) + list(relative_chain_complex(torus_complex(), []).boundaries)
    dense = []
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        dense.append(from_rows([[rng.choice(ENTRY_CHOICES) for _ in range(cols)] for _ in range(rows)]))
    for m in chain + dense:
        before = {j: [(i, v, type(v)) for i, v in column.items()] for j, column in m.columns.items()}
        m.entries.clear()  # entries is a new dict, not the storage
        expected = oracle_rank_dense(to_dense(m))
        assert rank(m) == expected
        kernel_basis(m)
        x0 = [rng.randint(-3, 3) for _ in range(m.cols)]
        for target in (apply(m, x0), [rng.randint(-3, 3) for _ in range(m.rows)]):
            solve_in_image(m, sparse_vector(target))
        inc = IncrementalRank()
        for column in m.columns.values():
            inc.add(column)
        assert inc.rank == expected
        assert {j: [(i, v, type(v)) for i, v in column.items()] for j, column in m.columns.items()} == before
    # Columns that reduce to zero met a pivot: rank copied them first.
    assert sum(not takes_forest(m) and rank(m) < len(m.columns) for m in chain) >= 10
