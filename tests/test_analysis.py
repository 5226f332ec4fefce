import random
import re
from fractions import Fraction

import pytest

from localhomology import (
    ExactMatrix,
    SimplicialComplex,
    UnknownSimplexError,
    classify,
    correlation_table,
    filtration_persistence,
    flag_complex,
    generalized_degree,
    global_betti,
    induced_map_matrix,
    is_homology_n_manifold,
    karate_graph,
    local_betti,
    local_betti_at,
    local_profile,
    neighborhood,
    neighborhood_filtration,
    planar_grid_graph,
    profile_many,
    profiles_to_csv,
)

from localhomology.analysis import BOUNDARY_LIKE, RAMIFICATION, _classify_vector, manifold_interior

from util import (
    annulus_complex,
    cone_over,
    fan_disk,
    graph_as_one_complex,
    open_neighborhood,
    random_complex,
    random_connected_complex,
    random_connected_graph,
    random_tree,
    tetrahedron_boundary,
    torus_complex,
    triple_triangle,
    wedge_of_two_circles,
)


@pytest.fixture
def five_path():
    return SimplicialComplex.from_maximal([[i, i + 1] for i in range(4)])


# -- neighborhoods -----------------------------------------------------------


def test_level_zero_is_star(five_path):
    seed = [(2,)]
    assert neighborhood(five_path, seed, 0).members == five_path.star(seed).members


def test_neighborhood_of_everything_is_everything(five_path):
    full = five_path.full_set()
    for m in range(3):
        assert neighborhood(five_path, full, m).members == full.members


def test_five_path_neighborhood_expansion(five_path):
    # Hand expansion around the midpoint: the star, then one more ring of
    # edges, then the whole complex.
    c = (2,)
    n0 = neighborhood(five_path, [c], 0)
    assert n0.members == {(2,), (1, 2), (2, 3)}
    n1 = neighborhood(five_path, [c], 1)
    assert n1.members == {(1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (3, 4)}
    n2 = neighborhood(five_path, [c], 2)
    assert n2.members == five_path.full_set().members


def test_filtration_is_monotone_and_open():
    rng = random.Random(3)
    for _ in range(15):
        x = random_complex(rng)
        if x.dim < 0:
            continue
        seed = [random.Random(1).choice(sorted(x.all_faces()))]
        levels = neighborhood_filtration(x, seed, 3).levels
        for m, level in enumerate(levels):
            assert x.is_open(level)
            if m:
                assert levels[m - 1].members <= level.members


def test_negative_level_rejected(five_path):
    with pytest.raises(ValueError):
        neighborhood(five_path, [(2,)], -1)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: neighborhood_filtration(x, [(2,)], -5),
        lambda x: local_profile(x, (2,), -2),
        lambda x: profile_many(x, [(2,)], m_max=-1),
        lambda x: profile_many(x, [], m_max=-1),
        lambda x: filtration_persistence(x, (2,), 1, -1),
    ],
    ids=["neighborhood_filtration", "local_profile", "profile_many", "profile_many_no_seeds", "filtration_persistence"],
)
def test_negative_level_rejected_by_every_entry_point(five_path, call):
    with pytest.raises(ValueError):
        call(five_path)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: neighborhood_filtration(x, [(0,)], True),
        lambda x: neighborhood_filtration(x, [(0,)], 1.5),
        lambda x: neighborhood(x, [(0,)], 1.0),
        lambda x: local_profile(x, (0,), True),
        lambda x: filtration_persistence(x, (0,), True, 1),
        lambda x: filtration_persistence(x, (0,), 1, 0.5),
        lambda x: profile_many(x, [], m_max="a"),
        lambda x: profile_many(x, [], m_max=True),
    ],
    ids=[
        "filtration_bool", "filtration_half", "neighborhood_float", "profile_bool", "persistence_k_bool",
        "persistence_m_half", "profile_many_no_seeds_str", "profile_many_no_seeds_bool",
    ],
)
def test_level_or_degree_that_is_not_an_int_refused(call):
    # True once built two levels and 1.5 raised a bare TypeError from range.
    # profile_many with no seeds once returned [] for any level.
    x = SimplicialComplex.from_maximal([[0, 1, 2], [2, 3]])
    with pytest.raises(ValueError, match="must be non-negative"):
        call(x)


SPHERE = tetrahedron_boundary()
VERTEX_STAR = SPHERE.star([(0,)])
COUNT_ARGUMENTS = {
    # id: (call taking the value, the name its message gives, least value)
    "manifold_interior": (manifold_interior, "manifold dimension", 0),
    "faces": (SPHERE.faces, "dimension", 0),
    "neighborhood_filtration": (lambda v: neighborhood_filtration(SPHERE, [(0,)], v), "neighborhood level", 0),
    "profile_many": (lambda v: profile_many(SPHERE, m_max=v), "neighborhood level", 0),
    "local_profile": (lambda v: local_profile(SPHERE, (0,), v), "neighborhood level", 0),
    "persistence_k": (lambda v: filtration_persistence(SPHERE, (0,), v, 1), "homology dimension", 0),
    "persistence_m_max": (lambda v: filtration_persistence(SPHERE, (0,), 1, v), "neighborhood level", 0),
    "induced_map_matrix": (lambda v: induced_map_matrix(SPHERE, VERTEX_STAR, VERTEX_STAR, v), "homology dimension", 0),
    "table_m_max": (lambda v: correlation_table(karate_graph(), m_max=v), "neighborhood level", 0),
    "table_k_max": (lambda v: correlation_table(karate_graph(), k_max=v), "largest homology degree", 1),
    "matrix_rows": (lambda v: ExactMatrix(v, 2), "matrix rows", 0),
    "matrix_cols": (lambda v: ExactMatrix(2, v), "matrix cols", 0),
    "zeros_rows": (lambda v: ExactMatrix.zeros(v, 2), "matrix rows", 0),
    "from_columns_rows": (lambda v: ExactMatrix.from_columns([{0: 1}], v), "matrix rows", 0),
}


@pytest.mark.parametrize("value", [-1, True, 1.0], ids=["negative", "bool", "float_one"])
@pytest.mark.parametrize("site", sorted(COUNT_ARGUMENTS))
def test_every_count_argument_refuses_negatives_bools_and_floats(site, value):
    # One rule and one message: a count is an int, not a bool, at least its least value.
    call, what, least = COUNT_ARGUMENTS[site]
    rule = "non-negative" if least == 0 else f"at least {least}"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be {rule} and an int, not {value!r}')}$"):
        call(value)


# -- profiles ----------------------------------------------------------------


def test_annulus_interior_triangle_profile():
    complex, _, interior = annulus_complex()
    triangle = next(s for s in sorted(interior) if len(s) == 3)
    profile = local_profile(complex, triangle, 0)
    assert profile.betti_by_level[0] == (0, 0, 1)
    assert profile.classification == "manifold-interior(2)"


def test_isolated_vertex_profile_every_level():
    x = SimplicialComplex.from_maximal([[0]])
    profile = local_profile(x, (0,), 3)
    assert all(values == (1,) for values in profile.betti_by_level)


def test_unknown_simplex_profile(five_path):
    with pytest.raises(UnknownSimplexError):
        local_profile(five_path, (9,), 0)


def test_seed_entry_points_reject_non_faces():
    # Unknown, out of order, repeated, a list rather than a tuple, and an
    # unhashable vertex; each checked before and after the face index exists.
    entry_points = (
        lambda x, seed: local_profile(x, seed, 0),
        lambda x, seed: profile_many(x, [seed]),
        lambda x, seed: profile_many(x, [(0,), seed]),
        lambda x, seed: profile_many(x, [seed, (0,)]),
        lambda x, seed: filtration_persistence(x, seed, 0, 0),
        lambda x, seed: local_betti_at(x, seed),
        lambda x, seed: classify(x, seed, 1),
        lambda x, seed: generalized_degree(x, seed),
    )
    for built in (False, True):
        for call in entry_points:
            for seed in ((9,), (1, 0), (0, 0), [0], ([0],)):
                x = SimplicialComplex.from_maximal([[0, 1], [1, 2]])
                if built:
                    assert len(x.full_set()) == 5
                with pytest.raises(UnknownSimplexError, match="is not a face of the complex"):
                    call(x, seed)


def test_profile_many_identical_across_runs(five_path):
    first = profile_many(five_path, m_max=1)
    second = profile_many(five_path, m_max=1)
    assert first == second
    assert [p.simplex for p in first] == sorted(five_path.all_faces())


def test_profiles_csv_shape(five_path):
    profiles = profile_many(five_path, m_max=1)
    text = profiles_to_csv(five_path, profiles)
    lines = text.splitlines()
    assert lines[0] == "simplex;dim;m;beta_0;beta_1;class"
    assert len(lines) == 1 + 2 * len(profiles)
    assert lines[1].startswith("0;0;0;")


def test_profiles_csv_header_without_faces():
    empty = SimplicialComplex.from_maximal([])
    assert profiles_to_csv(empty, profile_many(empty)) == "simplex;dim;m;class\n"


# -- generalized degree ------------------------------------------------------


def test_generalized_degree_is_vertex_degree_on_graphs():
    rng = random.Random(5)
    for _ in range(10):
        graph = random_connected_graph(rng, rng.randint(2, 9))
        x = graph_as_one_complex(graph)
        for v in range(graph.n):
            assert generalized_degree(x, (v,)) == graph.degree(v)


def test_generalized_degree_interior_disk_edge():
    disk = fan_disk(6)
    spoke = disk.simplex_with_labels([0, 1])
    assert generalized_degree(disk, spoke) == 1


def test_triple_triangle_components_match_bound():
    x = triple_triangle()
    shared = x.simplex_with_labels([0, 1])
    star = x.star([shared])
    outside = star.complement()
    beta_1 = local_betti(x, star)[1]
    assert outside.connected_components() == beta_1 + 1 == 1


# -- classification ----------------------------------------------------------


def test_classify_annulus():
    complex, boundary, interior = annulus_complex()
    for simplex in sorted(interior):
        assert classify(complex, simplex, 2) == "manifold-interior(2)"
    for simplex in sorted(boundary):
        assert classify(complex, simplex, 2) == "boundary-like"


def test_classify_ramification_edge():
    x = triple_triangle()
    assert classify(x, x.simplex_with_labels([0, 1]), 2) == "ramification"


def test_sphere_is_homology_2_manifold():
    ok, offenders = is_homology_n_manifold(tetrahedron_boundary(), 2)
    assert ok
    assert offenders == []


def test_torus_is_homology_2_manifold():
    torus = torus_complex()
    assert global_betti(torus) == (1, 2, 1)
    ok, offenders = is_homology_n_manifold(torus, 2)
    assert ok and offenders == []


def test_circle_is_homology_1_manifold():
    circle = SimplicialComplex.from_maximal([[0, 1], [1, 2], [0, 2]])
    ok, offenders = is_homology_n_manifold(circle, 1)
    assert ok and offenders == []


@pytest.mark.parametrize("n", [1.5, True, "1"], ids=["half", "bool", "str"])
def test_manifold_dimension_that_is_not_an_int_refused(n):
    # 1.5 once classified a triangle corner as manifold-interior(1.5), and True read as 1.
    x = SimplicialComplex.from_maximal([[0, 1, 2], [2, 3]])
    for check in (lambda: classify(x, (0,), n), lambda: is_homology_n_manifold(x, n)):
        with pytest.raises(ValueError, match="manifold dimension"):
            check()


def test_classify_vector_branches():
    # e_n is a manifold interior, all zeros is boundary-like, anything else ramifies.
    for n in range(4):
        e_n = tuple(1 if k == n else 0 for k in range(4))
        assert _classify_vector(e_n, n) == manifold_interior(n)
        assert _classify_vector(e_n[: n + 1], n) == manifold_interior(n)
    for values in [(), (0,), (0, 0, 0)]:
        assert _classify_vector(values, 1) == BOUNDARY_LIKE
    for values, n in [
        ((1, 1, 0), 0),  # e_0 plus another nonzero entry
        ((0, 1, 0, 2), 1),
        ((0, 0, 2), 2),  # a 2 at n
        ((0, 2), 1),
        ((1, 0), 2),  # n at or past the length
        ((0, 1), 2),
        ((1,), 1),
    ]:
        assert _classify_vector(values, n) == RAMIFICATION


@pytest.mark.parametrize("n", [True, -1, 1.0], ids=["bool", "negative", "float_one"])
def test_classify_vector_refuses_bad_dimension(n):
    # n is checked before the values are read, so all zeros does not let it through.
    for values in [(0, 0, 0), (0, 1, 0), ()]:
        with pytest.raises(ValueError, match="manifold dimension"):
            _classify_vector(values, n)


def test_annulus_fails_manifold_check_at_boundary():
    complex, boundary, _ = annulus_complex()
    ok, offenders = is_homology_n_manifold(complex, 2)
    assert not ok
    assert set(offenders) == set(boundary)


def test_manifold_check_matches_per_face_classify_loop():
    # The per-face classify loop is the route is_homology_n_manifold replaced.
    rng = random.Random(2024)
    for _ in range(200):
        x = random_complex(rng, n_vertices=rng.randint(3, 7), n_maximal=rng.randint(1, 6))
        for n in range(4):
            interior = f"manifold-interior({n})"
            offenders = [s for s in sorted(x.all_faces()) if classify(x, s, n) != interior]
            assert is_homology_n_manifold(x, n) == (not offenders, offenders)


def test_profile_classification_reads_against_complex_dimension():
    # A profile's class is classify's verdict against dim X; other n go through classify.
    rng = random.Random(2025)
    for _ in range(100):
        x = random_complex(rng, n_vertices=rng.randint(3, 7), n_maximal=rng.randint(1, 6))
        faces = sorted(x.all_faces())
        assert [p.classification for p in profile_many(x)] == [classify(x, s, x.dim) for s in faces]


def test_wedge_ramifies_at_shared_vertex():
    wedge = wedge_of_two_circles()
    hub = wedge.simplex_with_labels([0])
    assert local_betti_at(wedge, hub)[1] == 3
    ok, offenders = is_homology_n_manifold(wedge, 1)
    assert not ok
    assert offenders == [hub]
    assert classify(wedge, hub, 1) == "ramification"


@pytest.mark.parametrize(
    "call",
    [
        lambda x: classify(x, (0,), -1),
        lambda x: is_homology_n_manifold(x, -1),
    ],
    ids=["classify", "is_homology_n_manifold"],
)
def test_negative_manifold_dimension_rejected(call):
    # Zero homology in every degree is no interior of any dimension.
    triangle = SimplicialComplex.from_maximal([[0, 1, 2]])
    with pytest.raises(ValueError):
        call(triangle)


# -- filtration persistence ---------------------------------------------------


def test_persistence_rejects_negative_degree():
    # A negative index would read beta_2 of the sphere from the end.
    with pytest.raises(ValueError):
        filtration_persistence(tetrahedron_boundary(), (0,), -1, 0)


def test_persistence_stabilized_levels_have_full_rank():
    x = tetrahedron_boundary()
    # One step of the recurrence already reaches the whole sphere.
    pairs = filtration_persistence(x, (0,), 2, 2)
    assert pairs[1][0] == pairs[2][0] == 1
    assert pairs[1][1] == 1


def test_persistence_on_five_path(five_path):
    pairs = filtration_persistence(five_path, (2,), 1, 2)
    assert [b for b, _ in pairs] == [1, 1, 0]
    assert pairs[0][1] == 1  # the surviving relative circle
    assert pairs[1][1] == 0  # nothing arrives from the whole-tree level
    assert pairs[2][1] is None


def test_persistence_rank_bounded_by_adjacent_betti():
    rng = random.Random(7)
    for _ in range(10):
        x = random_connected_complex(rng, n_vertices=6, n_maximal=4, max_size=3)
        simplex = random.Random(11).choice(sorted(x.all_faces()))
        for k in range(x.dim + 1):
            pairs = filtration_persistence(x, simplex, k, 2)
            for m, (b, r) in enumerate(pairs):
                if r is None:
                    continue
                assert r <= min(b, pairs[m + 1][0] if m + 1 < len(pairs) else b)


# -- the component bound ------------------------------------------------------


def assert_component_bound(x, expect_equality):
    full = x.full_set()
    for simplex in sorted(x.all_faces()):
        star = x.star([simplex])
        if star.members == full.members:
            continue
        outside = star.complement()
        components = outside.connected_components()
        bound = local_betti(x, star)[1] + 1
        assert components <= bound
        if expect_equality:
            assert components == bound


def test_component_bound_equality_on_trees():
    rng = random.Random(13)
    for _ in range(15):
        tree = random_tree(rng, rng.randint(2, 10))
        assert_component_bound(graph_as_one_complex(tree), expect_equality=True)


def test_component_bound_equality_on_cones():
    rng = random.Random(17)
    for _ in range(15):
        base = random_complex(rng, n_vertices=5, n_maximal=3, max_size=3)
        if base.dim < 0:
            continue
        assert_component_bound(cone_over(base), expect_equality=True)


def test_component_bound_inequality_in_general():
    rng = random.Random(19)
    for _ in range(15):
        x = random_connected_complex(rng, n_vertices=6, n_maximal=5, max_size=3)
        if x.dim < 0:
            continue
        assert_component_bound(x, expect_equality=False)


def test_tree_components_equal_local_circle_count_plus_one():
    rng = random.Random(23)
    for _ in range(10):
        tree = random_tree(rng, rng.randint(2, 10))
        x = graph_as_one_complex(tree)
        for v in range(tree.n):
            star = x.star([(v,)])
            if star.members == x.full_set().members:
                continue
            outside = star.complement()
            assert outside.connected_components() == local_betti(x, star)[1] + 1


# -- planar clustering bounds --------------------------------------------------


def test_planar_clustering_and_local_homology_bounds():
    # Both two-sided bounds, checked with exact rationals on seeded planar
    # graphs; local homology is taken in the flag complex, where the
    # component identity behind the bound holds at every vertex.
    identity_violations = 0
    for seed in range(8):
        graph = planar_grid_graph(4, 4, 0.5, seed)
        flag = flag_complex(graph)
        for v in range(graph.n):
            d = graph.degree(v)
            if d < 2:
                continue
            cc = graph.clustering_coefficient(v)
            pi0 = open_neighborhood(graph, v).connected_components()
            low = Fraction(2 * (d - pi0), d * (d - 1))
            high = Fraction(6 * (d - pi0), d * (d - 1))
            assert low <= cc <= high
            h = local_betti_at(flag, (v,))[1]
            if pi0 != h + 1:
                identity_violations += 1
            assert d - 1 - Fraction(d * (d - 1), 2) * cc <= h
            assert h <= d - 1 - Fraction(d * (d - 1), 6) * cc
    # Recorded rather than asserted: the component identity held everywhere.
    if identity_violations:
        print(f"component identity violations on planar graphs: {identity_violations}")
