import random
from fractions import Fraction

import pytest

from localhomology import (
    ChainComplexRep,
    ExactMatrix,
    NotClosedError,
    NotOpenError,
    PreconditionError,
    SimplicialComplex,
    UnknownSimplexError,
    betti,
    erdos_renyi_graph,
    flag_complex,
    global_betti,
    homology_basis,
    induced_map_matrix,
    induced_map_rank,
    kernel_basis,
    local_betti,
    local_betti_at,
    local_betti_direct,
    neighborhood_filtration,
    rank,
    reduced_betti,
    relative_chain_complex,
)
from localhomology import homology
from localhomology.analysis import filtration_persistence
from localhomology.homology import _excised_chain_complex
from localhomology.linalg import _forest_kernel

from util import (
    annulus_complex,
    apply,
    dense_vector,
    elimination_kernel,
    graph_as_one_complex,
    hstack,
    naive_closure,
    negate,
    oracle_chain_complex,
    projective_plane,
    random_complex,
    random_connected_graph,
    random_open_set,
    tetrahedron_boundary,
    to_dense,
    triple_triangle,
    vstack,
)


@pytest.fixture
def circle():
    return SimplicialComplex.from_maximal([[0, 1], [1, 2], [0, 2]])


# -- chain complexes ---------------------------------------------------------


def test_triangle_boundary_matrices():
    x = SimplicialComplex.from_maximal([[0, 1, 2]])
    rep = relative_chain_complex(x, x.empty_set())
    rep.validate()
    assert rep.bases[1] == ((0, 1), (0, 2), (1, 2))
    # One column for (0,1,2): facets (1,2), (0,2), (0,1) carry +, -, +.
    assert to_dense(rep.boundaries[2]) == [[Fraction(1)], [Fraction(-1)], [Fraction(1)]]


def test_everything_excluded_gives_empty_bases():
    x = SimplicialComplex.from_maximal([[0, 1, 2]])
    rep = relative_chain_complex(x, x.full_set())
    assert all(len(level) == 0 for level in rep.bases)
    assert betti(rep) == (0, 0, 0)


def test_closed_vertex_star_pair_boundary():
    # Closed star of the hub of a degree-d star graph relative to its
    # frontier: one basis vertex (the hub), d basis edges, and every edge
    # maps to the hub with a single signed unit. The map has full rank d=1
    # columns collapse... rank is 1 and the local circle count is d-1.
    for d in [1, 2, 4, 7]:
        x = SimplicialComplex.from_maximal([[0, i] for i in range(1, d + 1)])
        star = x.star([(0,)])
        frontier = x.frontier(star)
        assert len(frontier) == d
        values = local_betti(x, star)
        assert values[0] == 0
        assert values[1] == d - 1


def test_boundary_composition_is_zero_on_random_pairs():
    rng = random.Random(3)
    for _ in range(25):
        x = random_complex(rng)
        if x.dim < 0:
            continue
        closed = x.closure(random_open_set(rng, x).complement())
        rep = relative_chain_complex(x, closed)
        rep.validate()


def test_chain_complex_rep_is_an_immutable_value():
    # A segment, built by keyword and read back by attribute.
    rep = relative_chain_complex(SimplicialComplex.from_maximal([[0, 1]]), [])
    assert rep.bases == (((0,), (1,)), ((0, 1),))
    assert rep.boundaries == (ExactMatrix(0, 2), ExactMatrix(2, 1, {(0, 0): -1, (1, 0): 1}))
    same = ChainComplexRep(bases=rep.bases, boundaries=rep.boundaries)
    assert same == rep and hash(same) == hash(rep)
    assert same != ChainComplexRep(bases=rep.bases[:1], boundaries=rep.boundaries[:1])
    with pytest.raises(AttributeError):
        rep.bases = ()
    assert repr(rep) == f"ChainComplexRep(bases={rep.bases!r}, boundaries={rep.boundaries!r})"
    # It is the pair (bases, boundaries): equal to that tuple, and unpacked into it.
    assert rep == (rep.bases, rep.boundaries)
    unpacked_bases, unpacked_boundaries = rep
    assert (unpacked_bases, unpacked_boundaries) == (rep.bases, rep.boundaries)


def test_chain_complexes_equal_the_definition():
    # The pair (X, Y) has basis X minus Y; the excised pair (cl U, fr U) has
    # basis U. Each boundary keeps the facets that are basis faces.
    rng = random.Random(19)
    empty = SimplicialComplex.from_maximal([])
    assert relative_chain_complex(empty, []) == ChainComplexRep(bases=(), boundaries=())
    assert _excised_chain_complex(empty, empty.empty_set()) == ChainComplexRep(bases=(), boundaries=())
    for x in [empty, tetrahedron_boundary()] + [random_complex(rng) for _ in range(40)]:
        faces = sorted(x.all_faces())
        closed = x.closure(rng.sample(faces, rng.randint(0, len(faces))))
        rep = relative_chain_complex(x, closed)
        assert rep == oracle_chain_complex(x, set(faces) - closed.members)
        assert_stored_signs(rep)
        open_sets = [random_open_set(rng, x), x.empty_set()]
        if faces:
            open_sets.append(x.star([rng.choice(sorted(x.maximal))]))
        for u in open_sets:
            rep = _excised_chain_complex(x, u)
            assert rep == oracle_chain_complex(x, u.members)
            assert_stored_signs(rep)
    # Bases shaped like the benchmark's: neighborhoods to level 2 of a few
    # vertices of an ER(120,600) flag complex, dense in its face ids, and
    # the tiny stars of single faces, sparse in them.
    x = flag_complex(erdos_renyi_graph(120, 600, 5))
    faces = sorted(x.all_faces())
    open_sets = [x.star([f]) for f in rng.sample(faces, 12)]
    for v in rng.sample(range(x.n_vertices), 4):
        open_sets += neighborhood_filtration(x, [(v,)], 2).levels
    assert x.dim == 3  # faces of 2, 3 and 4 vertices, so odd and even facet counts
    routes = {u.mask.bit_count() < 16 for u in open_sets}
    assert routes == {True, False}  # both decodes of the basis mask, by `_ascending`'s rule
    for u in open_sets:
        rep = _excised_chain_complex(x, u)
        assert rep == oracle_chain_complex(x, u.members)
        assert_stored_signs(rep)


def test_excision_basis_is_exactly_the_open_set():
    # For an open U, cl U minus fr U is U itself, so the excised pair
    # (cl U, fr U) has the chain complex of the pair (X, X minus U).
    rng = random.Random(29)
    complexes = [SimplicialComplex.from_maximal([]), tetrahedron_boundary(), annulus_complex()[0]]
    complexes += [random_complex(rng) for _ in range(30)] + [flag_complex(erdos_renyi_graph(40, 160, 3))]
    for x in complexes:
        faces = sorted(x.all_faces())
        open_sets = [x.empty_set(), x.full_set(), random_open_set(rng, x), random_open_set(rng, x, 4)]
        for f in rng.sample(faces, min(8, len(faces))):
            open_sets += neighborhood_filtration(x, [f], 2).levels  # the star of f, then levels 1 and 2
        for u in open_sets:
            assert x.is_open(u)
            assert x.closure(u).mask & ~x.frontier(u).mask == u.mask
            assert _excised_chain_complex(x, u) == relative_chain_complex(x, u.complement())


def assert_stored_signs(rep):
    # `==` takes Fraction(1) for 1, so check the stored form itself: only
    # nonempty columns, rows and columns in range, int signs. `rank` reads
    # an integral matrix's columns as stored, so each boundary must say it
    # is integral, hold no solve pivots yet, and span the adjacent bases.
    assert len(rep.boundaries) == len(rep.bases)
    for k, matrix in enumerate(rep.boundaries):
        assert type(matrix) is ExactMatrix
        assert matrix._integral is True and matrix._solve_pivots is None
        assert matrix.cols == len(rep.bases[k])
        assert matrix.rows == (len(rep.bases[k - 1]) if k else 0)
        for j, column in matrix.columns.items():
            assert 0 <= j < matrix.cols and column
            for i, v in column.items():
                assert 0 <= i < matrix.rows and type(v) is int and v in (1, -1)


def test_relative_requires_closed_set():
    x = SimplicialComplex.from_maximal([[0, 1, 2]])
    with pytest.raises(NotClosedError):
        relative_chain_complex(x, [(0, 1)])


# -- global and reduced Betti numbers ----------------------------------------


def test_sphere_betti():
    assert global_betti(tetrahedron_boundary()) == (1, 0, 1)


def test_projective_plane_torsion_is_invisible_over_q():
    x = projective_plane()
    assert global_betti(x) == (1, 0, 0)
    boundary = relative_chain_complex(x, x.empty_set()).boundaries[2]
    assert boundary.shape == (15, 10)
    # Each edge in exactly two triangles: the columns sum to 0 mod 2, so a
    # characteristic-2 rank would be 9.
    assert all(sum(1 for i, _ in boundary.entries if i == row) == 2 for row in range(15))
    assert rank(boundary) == 10


def test_single_vertex_betti():
    x = SimplicialComplex.from_maximal([[0]])
    assert global_betti(x) == (1,)
    assert reduced_betti(x) == (0,)


def test_circle_betti(circle):
    assert global_betti(circle) == (1, 1)
    assert reduced_betti(circle) == (0, 1)


def test_two_points_reduced():
    x = SimplicialComplex.from_maximal([[0], [1]])
    assert reduced_betti(x) == (1,)


def test_reduced_of_empty_rejected():
    with pytest.raises(PreconditionError):
        reduced_betti(SimplicialComplex.from_maximal([]))


def test_reduced_agrees_with_pair_against_one_vertex():
    rng = random.Random(5)
    for _ in range(15):
        x = random_complex(rng)
        if x.dim < 0:
            continue
        vertex = x.faces(0)[0]
        pair = betti(relative_chain_complex(x, [vertex]))
        assert pair == reduced_betti(x)


# -- local homology ----------------------------------------------------------


def test_local_betti_of_whole_space_is_global(circle):
    assert local_betti(circle, circle.full_set()) == global_betti(circle)


def test_local_betti_rejects_non_open(circle):
    with pytest.raises(NotOpenError):
        local_betti(circle, [(0,)])


def test_local_betti_at_unknown_simplex(circle):
    with pytest.raises(UnknownSimplexError):
        local_betti_at(circle, (0, 1, 2))


def test_local_betti_at_a_face_is_shifted_reduced_betti_of_its_link():
    # Munkres, Elements of Algebraic Topology, section 63: the local homology
    # at a face s is the reduced homology of lk s shifted up by dim s + 1.
    # lk s is built from its definition, the faces of cl st s disjoint from
    # s; an empty link (s maximal) has reduced homology only in degree -1.
    rng = random.Random(63)
    for _ in range(200):
        x = random_complex(rng)
        for s in x.all_faces():
            star = x.star([s])
            values = local_betti(x, star)
            assert values == local_betti_direct(x, star)
            link = [t for t in naive_closure(star.members) if not set(t) & set(s)]
            expected = [0] * (x.dim + 1)
            if link:
                for k, b in enumerate(reduced_betti(SimplicialComplex.from_maximal(link))):
                    expected[k + len(s)] = b
            else:
                expected[len(s) - 1] = 1
            assert values == tuple(expected), (x.maximal, s)


def test_graph_degree_identity_small():
    rng = random.Random(7)
    for _ in range(20):
        graph = random_connected_graph(rng, rng.randint(2, 9))
        x = graph_as_one_complex(graph)
        for v in range(graph.n):
            values = local_betti_at(x, (v,))
            assert values[1] == graph.degree(v) - 1
            assert values[0] == 0


def test_annulus_local_homology():
    complex, boundary, interior = annulus_complex()
    assert global_betti(complex) == (1, 1, 0)
    for simplex in sorted(interior):
        assert local_betti_at(complex, simplex) == (0, 0, 1)
    for simplex in sorted(boundary):
        assert local_betti_at(complex, simplex) == (0, 0, 0)


def test_triple_triangle_shared_edge():
    x = triple_triangle()
    shared = x.simplex_with_labels([0, 1])
    assert local_betti_at(x, shared) == (0, 0, 2)


def test_excision_matches_direct_computation():
    rng = random.Random(11)
    for _ in range(30):
        x = random_complex(rng, n_vertices=6, n_maximal=4, max_size=3)
        if x.dim < 0:
            continue
        u = random_open_set(rng, x)
        assert local_betti(x, u) == local_betti_direct(x, u)
    # Empty and full open sets as edge cases.
    x = tetrahedron_boundary()
    assert local_betti(x, x.empty_set()) == local_betti_direct(x, x.empty_set()) == (0, 0, 0)
    assert local_betti(x, x.full_set()) == local_betti_direct(x, x.full_set()) == (1, 0, 1)


def test_euler_consistency_of_excised_complex():
    rng = random.Random(13)
    for _ in range(20):
        x = random_complex(rng)
        if x.dim < 0:
            continue
        u = random_open_set(rng, x)
        values = local_betti(x, u)
        euler_chain = sum((-1) ** (len(s) - 1) for s in u.members)
        euler_betti = sum((-1) ** k * b for k, b in enumerate(values))
        assert euler_chain == euler_betti


# -- homology bases ----------------------------------------------------------


def test_circle_cycle_representative(circle):
    basis = homology_basis(circle, circle.full_set())
    assert basis.betti() == (1, 1)
    (rep,) = basis.representatives[1]
    assert sorted(rep) == [0, 1, 2] and all(rep.values())  # supported on all three edges


def test_trivial_local_homology_gives_empty_basis():
    x, _, interior = annulus_complex()
    edge = next(s for s in sorted(interior) if len(s) == 2)
    basis = homology_basis(x, x.star([edge]))
    assert basis.betti() == (0, 0, 1)
    assert basis.representatives[0] == ()
    assert basis.representatives[1] == ()


def test_degree_three_star_has_two_relative_cycles():
    x = SimplicialComplex.from_maximal([[0, 1], [0, 2], [0, 3]])
    star = x.star([(0,)])
    basis = homology_basis(x, star)
    assert basis.betti()[1] == 2
    # Each representative is a relative cycle: the relative boundary map
    # sends it to zero once frontier faces are dropped.
    rep_complex = _excised_chain_complex(x, star)
    n_edges = len(rep_complex.bases[1])
    for vec in basis.representatives[1]:
        assert all(x == 0 for x in apply(rep_complex.boundaries[1], dense_vector(vec, n_edges)))


def test_representative_counts_match_betti_everywhere():
    rng = random.Random(17)
    for _ in range(15):
        x = random_complex(rng)
        if x.dim < 0:
            continue
        u = random_open_set(rng, x)
        assert homology_basis(x, u).betti() == local_betti(x, u)


def test_homology_bases_and_maps_unchanged_by_the_forest_kernel(monkeypatch):
    # homology_basis, induced_map_rank and filtration_persistence give the
    # same results when every kernel is taken by elimination alone: on
    # seeded complexes with nested open pairs, and at levels 0 and 1 of
    # vertices of an ER(60,300) flag complex.
    rng = random.Random(83)
    cases = []  # (complex, larger open set, smaller open set inside it)
    for _ in range(40):
        x = random_complex(rng, rng.randint(3, 8), rng.randint(1, 6), 4)
        u = random_open_set(rng, x, 3)
        seeds = sorted(u.members)
        v = x.star([rng.choice(seeds)]) if seeds else u
        cases.append((x, u, v))
    flag = flag_complex(erdos_renyi_graph(60, 300, 7))
    for vertex in range(0, 60, 2):
        levels = neighborhood_filtration(flag, [(vertex,)], 1).levels
        cases.append((flag, levels[1], levels[0]))

    def results():
        out = []
        for x, u, v in cases:
            ks = range(x.dim + 2)
            out.append((homology_basis(x, u), homology_basis(x, v), [induced_map_rank(x, u, v, k) for k in ks]))
        for vertex in range(0, 60, 12):
            out.append([filtration_persistence(flag, (vertex,), k, 1) for k in range(3)])
        return out

    seen = []
    monkeypatch.setattr(homology, "kernel_basis", lambda m: seen.append(m) or kernel_basis(m))
    with_forest = results()
    assert sum(_forest_kernel(m) is not None for m in seen) >= 50
    monkeypatch.setattr(homology, "kernel_basis", elimination_kernel)
    assert results() == with_forest


# -- induced maps ------------------------------------------------------------


def test_induced_map_identity():
    x = tetrahedron_boundary()
    u = x.star([(0,)])
    for k in range(3):
        expected = local_betti(x, u)[k]
        assert induced_map_rank(x, u, u, k) == expected
    assert induced_map_matrix(x, u, u, 3).shape == (0, 0)


def test_induced_map_zero_target():
    x, boundary, _ = annulus_complex()
    vertex = next(s for s in sorted(boundary) if len(s) == 1)
    u = x.star([vertex])
    assert induced_map_rank(x, x.full_set(), u, 2) == 0


def test_induced_maps_are_stored_as_from_columns_would_store_them():
    # induced_map_matrix stores solve_in_image's Fractions as solved; the
    # matrix must be the one ExactMatrix.from_columns builds from the same
    # columns, with the same column key order, values and value types, and
    # the same _integral: on seeded nested open pairs and at levels 0 and 1
    # of vertices of an ER(60,300) flag complex.
    rng = random.Random(89)
    cases = []
    for _ in range(40):
        x = random_complex(rng, rng.randint(3, 8), rng.randint(1, 6), 4)
        u = random_open_set(rng, x, 3)
        seeds = sorted(u.members)
        v = x.star([rng.choice(seeds)]) if seeds else u
        cases.append((x, u, v))
    flag = flag_complex(erdos_renyi_graph(60, 300, 11))
    for vertex in range(10):
        levels = neighborhood_filtration(flag, [(vertex,)], 1).levels
        cases.append((flag, levels[1], levels[0]))

    def typed(matrix):
        return [(j, [(i, v, type(v)) for i, v in column.items()]) for j, column in matrix.columns.items()]

    stored = empty = no_target = 0
    for x, u, v in cases:
        for k in range(x.dim + 2):
            m = induced_map_matrix(x, u, v, k)
            rebuilt = ExactMatrix.from_columns([m.columns.get(j, {}) for j in range(m.cols)], m.rows)
            assert m == rebuilt
            assert typed(m) == typed(rebuilt)
            assert m._integral == rebuilt._integral == (not m.columns)
            stored += bool(m.columns)
            empty += m.cols > 0 and not m.columns
            no_target += m.cols > 0 and m.rows == 0
    assert stored >= 10 and empty >= 5 and no_target >= 5, (stored, empty, no_target)


def test_induced_map_requires_nesting(circle):
    u = circle.star([(0,)])
    v = circle.star([(1,)])
    with pytest.raises(PreconditionError):
        induced_map_rank(circle, u, v, 1)


@pytest.mark.parametrize("k", [0.5, True, "1"], ids=["half", "bool", "str"])
def test_induced_map_degree_that_is_not_an_int_refused(circle, k):
    u = circle.star([(0,)])
    for call in (induced_map_rank, induced_map_matrix):
        with pytest.raises(ValueError, match="homology dimension"):
            call(circle, u, u, k)


def test_induced_map_rank_bounds():
    rng = random.Random(19)
    for _ in range(15):
        x = random_complex(rng, n_vertices=6, n_maximal=4, max_size=3)
        if x.dim < 0:
            continue
        u = random_open_set(rng, x)
        if not len(u):
            continue
        seeds = sorted(u.members)
        v = x.star([rng.choice(seeds)])
        assert v.members <= u.members
        for k in range(x.dim + 1):
            r = induced_map_rank(x, u, v, k)
            assert r <= min(local_betti(x, u)[k], local_betti(x, v)[k])


def test_restriction_maps_compose():
    # Functoriality: restricting in two steps equals restricting directly.
    rng = random.Random(23)
    checked = 0
    for _ in range(15):
        x = random_complex(rng, n_vertices=6, n_maximal=4, max_size=3)
        if x.dim < 0:
            continue
        u = random_open_set(rng, x)
        if not len(u):
            continue
        mid_seed = rng.sample(sorted(u.members), min(2, len(u)))
        v = x.star(mid_seed)
        w = x.star([sorted(v.members)[0]])
        for k in range(x.dim + 1):
            direct = induced_map_matrix(x, u, w, k)
            composed = induced_map_matrix(x, v, w, k) @ induced_map_matrix(x, u, v, k)
            assert direct == composed
            checked += 1
    assert checked > 0


def test_joint_restriction_to_member_stars_can_lose_classes():
    # Pinned counterexample: on a single closed edge with U the whole
    # complex, the class of a point in degree zero restricts to zero on
    # the star of every member simplex (each of those pairs is
    # contractible), so the stacked restriction map has a kernel. Gluings
    # exist (the middle-exactness test above) but are not unique.
    edge = SimplicialComplex.from_maximal([[0, 1]])
    u = edge.full_set()
    assert local_betti(edge, u)[0] == 1
    for simplex in sorted(u.members):
        assert local_betti(edge, edge.star([simplex]))[0] == 0
    stacked = vstack(*(induced_map_matrix(edge, u, edge.star([simplex]), 0) for simplex in sorted(u.members)))
    assert rank(stacked) == 0 < local_betti(edge, u)[0]

    # A two-dimensional witness with the same failure in degree one.
    x = SimplicialComplex.from_maximal([(0, 1, 4), (0, 2), (3,)])
    u = x.star([x.simplex_with_labels([0, 1]), x.simplex_with_labels([0, 4])])
    assert local_betti(x, u)[1] == 1
    assert all(local_betti(x, x.star([s]))[1] == 0 for s in sorted(u.members))


def test_mayer_vietoris_middle_exactness():
    # ker(difference of restrictions to the intersection) equals the image
    # of the joint restriction from the union, as ranks.
    rng = random.Random(29)
    checked = 0
    for _ in range(20):
        x = random_complex(rng, n_vertices=6, n_maximal=4, max_size=3)
        if x.dim < 0:
            continue
        u = random_open_set(rng, x)
        v = random_open_set(rng, x)
        union = u | v
        meet = u & v
        for k in range(x.dim + 1):
            bu, bv = local_betti(x, u)[k], local_betti(x, v)[k]
            if bu + bv == 0:
                continue
            to_u = induced_map_matrix(x, union, u, k)
            to_v = induced_map_matrix(x, union, v, k)
            from_u = induced_map_matrix(x, u, meet, k)
            from_v = induced_map_matrix(x, v, meet, k)
            joint = vstack(to_u, to_v)
            difference = hstack(from_u, negate(from_v))
            assert (difference @ joint).is_zero()
            assert (bu + bv) - rank(difference) == rank(joint)
            checked += 1
    assert checked > 0

