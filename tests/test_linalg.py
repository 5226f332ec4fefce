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
from localhomology.linalg import IncrementalRank

from util import (
    apply,
    dense_vector,
    from_rows,
    identity_matrix,
    oracle_matmul,
    oracle_rank_dense,
    oracle_rank_minors,
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


def test_int_and_fraction_copies_reduce_alike():
    # rank, kernel_basis and solve_in_image see the same matrices whichever
    # type the entries have; half the matrices get a dependent column.
    rng = random.Random(43)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            for row in data:
                row.append(a * row[0] + b * row[-1])
        ints, fracs = from_rows(data), from_rows(as_fractions(data))
        assert rank(ints) == rank(fracs) == oracle_rank_dense(data)
        assert kernel_basis(ints) == kernel_basis(fracs)
        x0 = [rng.randint(-3, 3) for _ in range(ints.cols)]
        for target in (apply(ints, x0), [rng.randint(-3, 3) for _ in range(ints.rows)]):
            assert solve_in_image(ints, sparse_vector(target)) == solve_in_image(fracs, sparse_vector(target))


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
    # columns themselves: afterwards the matrix still equals an independent
    # copy, column by column and entry by entry type. Entries in +-5 force
    # non-unit pivot steps, which scale columns in place.
    rng = random.Random(59)
    datasets = [to_dense(relative_chain_complex(torus_complex(), []).boundaries[2])]
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        datasets.append([[rng.choice(ENTRY_CHOICES) for _ in range(cols)] for _ in range(rows)])
    for data in datasets:
        m, copy = from_rows(data), from_rows(data)
        types = {p: type(v) for p, v in copy.entries.items()}
        m.entries.clear()  # entries is a new dict, not the storage
        rank(m)
        kernel_basis(m)
        for _ in range(2):
            solve_in_image(m, sparse_vector([rng.randint(-3, 3) for _ in range(m.rows)]))
        inc = IncrementalRank()
        for column in m.columns.values():
            inc.add(column)
        assert inc.rank == rank(copy)
        assert m == copy and m.columns == copy.columns
        assert {p: type(v) for p, v in m.entries.items()} == types
