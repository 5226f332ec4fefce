"""Acceptance suite.

One test per acceptance criterion, each recorded through the `acceptance`
fixture so the run ends with an explicit PASS or FAIL line per criterion.
Every tolerance is pinned here; nothing is deferred to later calibration.

Criterion 8 checks three structural laws of the local-homology presheaf
U -> H_k(cl U, fr U) on open sets of the Alexandrov topology: boundary maps
compose to zero, restrictions glue (middle exactness of Mayer-Vietoris),
and uniqueness in its true form. For open U and V the complements X - U
and X - V are subcomplexes, so the relative Mayer-Vietoris sequence is
exact and the kernel of the joint restriction H_k(U | V) -> H_k(U) + H_k(V)
is exactly the image of the connecting map from H_{k+1}(U & V). The
clause compares the two dimensions at every degree.

The stronger statement that an open set's homology injects into the
product over the stars of its member simplices is false, so it is not
checked: on one closed edge the degree-0 class of the whole complex
restricts to zero on every member star, and on a closed triangle
U = {12, 23, 123} carries a degree-1 class that every member star kills.
tests/test_homology.py::test_joint_restriction_to_member_stars_can_lose_classes
pins the edge and a two-dimensional counterexample. The sheaf whose stalks are local homology is the
sheafification of this presheaf, not the presheaf itself.
"""

import random
import time
from fractions import Fraction

from localhomology import (
    SimplicialComplex,
    correlation_table,
    erdos_renyi_graph,
    barabasi_albert_graph,
    flag_complex,
    induced_map_matrix,
    is_homology_n_manifold,
    karate_graph,
    local_betti,
    local_betti_at,
    local_betti_direct,
    pearson,
    planar_grid_graph,
    rank,
    relative_chain_complex,
)

from util import (
    annulus_complex,
    cone_over,
    graph_as_one_complex,
    hstack,
    negate,
    open_neighborhood,
    random_complex,
    random_connected_complex,
    random_connected_graph,
    random_open_set,
    tetrahedron_boundary,
    triple_triangle,
    vstack,
)


def small_random_complex(rng, max_faces=25):
    # Rejection-sample until the total face count is within the cap.
    while True:
        x = random_complex(rng, n_vertices=6, n_maximal=4, max_size=3)
        if 0 <= x.dim and len(x) <= max_faces:
            return x


def test_criterion_1_degree_identity(acceptance):
    started = time.perf_counter()
    failures = []
    for seed in range(200):
        rng = random.Random(seed)
        graph = random_connected_graph(rng, rng.randint(2, 30))
        complex = graph_as_one_complex(graph)
        for v in range(graph.n):
            values = local_betti_at(complex, (v,))
            if values[1] != graph.degree(v) - 1:
                failures.append((seed, v))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    detail = f"{len(failures)} mismatches, {elapsed:.1f}s"
    acceptance(1, "degree identity on 200 random 1-complexes", ok, detail)
    assert not failures, failures[:5]
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_excision_oracle(acceptance):
    started = time.perf_counter()
    failures = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        x = small_random_complex(rng)
        u = random_open_set(rng, x)
        if local_betti(x, u) != local_betti_direct(x, u):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    acceptance(2, "excision equals direct relative computation", ok, f"{failures} mismatches, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_component_bound(acceptance):
    started = time.perf_counter()
    equality_failures = bound_failures = 0
    for seed in range(100):
        rng = random.Random(2000 + seed)
        base = small_random_complex(rng)
        cone = cone_over(base)
        full = cone.full_set()
        for simplex in sorted(cone.all_faces()):
            star = cone.star([simplex])
            if star.members == full.members:
                continue
            components = star.complement().connected_components()
            bound = local_betti(cone, star)[1] + 1
            if components != bound:
                equality_failures += 1
    for seed in range(100):
        rng = random.Random(3000 + seed)
        x = random_connected_complex(rng, n_vertices=6, n_maximal=5, max_size=3)
        if x.dim < 0:
            continue
        full = x.full_set()
        for simplex in sorted(x.all_faces()):
            star = x.star([simplex])
            if star.members == full.members:
                continue
            components = star.complement().connected_components()
            bound = local_betti(x, star)[1] + 1
            if components > bound:
                bound_failures += 1
    elapsed = time.perf_counter() - started
    ok = equality_failures == 0 and bound_failures == 0 and elapsed < 60.0
    acceptance(
        3,
        "component count bounded by the first local Betti number",
        ok,
        f"{equality_failures} equality / {bound_failures} bound failures, {elapsed:.1f}s",
    )
    assert equality_failures == 0
    assert bound_failures == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_planar_clustering_bounds(acceptance):
    started = time.perf_counter()
    cc_failures = lh_failures = 0
    for seed in range(50):
        width = 4 + seed % 3
        height = 4 + (seed // 3) % 3
        graph = planar_grid_graph(width, height, 0.5, seed)
        flag = flag_complex(graph)
        for v in range(graph.n):
            d = graph.degree(v)
            if d < 2:
                continue
            cc = graph.clustering_coefficient(v)
            pi0 = open_neighborhood(graph, v).connected_components()
            if not Fraction(2 * (d - pi0), d * (d - 1)) <= cc <= Fraction(6 * (d - pi0), d * (d - 1)):
                cc_failures += 1
            h = local_betti_at(flag, (v,))[1]
            low = d - 1 - Fraction(d * (d - 1), 2) * cc
            high = d - 1 - Fraction(d * (d - 1), 6) * cc
            if not low <= h <= high:
                lh_failures += 1
    elapsed = time.perf_counter() - started
    ok = cc_failures == 0 and lh_failures == 0 and elapsed < 30.0
    acceptance(
        4,
        "planar clustering-coefficient bounds, both directions",
        ok,
        f"{cc_failures} CC / {lh_failures} local-homology violations, {elapsed:.1f}s",
    )
    assert cc_failures == 0
    assert lh_failures == 0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_stratification_fixtures(acceptance):
    started = time.perf_counter()
    problems = []

    sphere_ok, offenders = is_homology_n_manifold(tetrahedron_boundary(), 2)
    if not (sphere_ok and offenders == []):
        problems.append("tetrahedron boundary is not a clean homology 2-manifold")

    complex, boundary, interior = annulus_complex()
    for simplex in sorted(interior):
        if local_betti_at(complex, simplex) != (0, 0, 1):
            problems.append(f"annulus interior {simplex}")
    for simplex in sorted(boundary):
        if local_betti_at(complex, simplex) != (0, 0, 0):
            problems.append(f"annulus boundary {simplex}")

    triple = triple_triangle()
    shared = triple.simplex_with_labels([0, 1])
    if local_betti_at(triple, shared)[2] != 2:
        problems.append("triple-triangle shared edge")

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 5.0
    acceptance(5, "stratification fixtures", ok, f"{len(problems)} problems, {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


KARATE_TARGETS = [
    ("degree_centrality", 0.700, 0.01),
    ("closeness_centrality", 0.726, 0.01),
    ("betweenness_vertex", 0.741, 0.01),
    ("maximal_cliques", 0.718, 0.01),
    ("clustering_coefficient", -0.656, 0.01),
    ("random_walk_betweenness", 0.761, 0.03),
]


def test_criterion_6_karate_reproduction(acceptance):
    started = time.perf_counter()
    report = correlation_table(karate_graph(), subject="vertex", m_max=0, k_max=1)
    misses = []
    for name, target, tolerance in KARATE_TARGETS:
        rho = report.cell(name, 1, 0)
        if rho is None or abs(rho - target) > tolerance:
            misses.append((name, rho, target, tolerance))
    elapsed = time.perf_counter() - started
    ok = not misses and elapsed < 60.0
    acceptance(6, "karate vertex correlation reproduction", ok, f"{len(misses)} rows out of tolerance, {elapsed:.1f}s")
    if misses:
        # Convention-sensitivity report: all correlation inputs are affine
        # families, so a miss points at a structurally different convention
        # (not at normalization constants).
        lines = ["convention sensitivity report:"]
        for name, rho, target, tolerance in misses:
            lines.append(
                f"  {name}: computed {rho}, expected {target} +/- {tolerance}; "
                "Pearson is invariant under positive affine rescaling, so "
                "normalization conventions cannot explain the gap"
            )
        raise AssertionError("\n".join(lines))
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_synthetic_sign_law(acceptance):
    started = time.perf_counter()

    def negative_count(graphs):
        hits = 0
        for graph in graphs:
            flag = flag_complex(graph)
            betti_column = [float(local_betti_at(flag, (v,))[1]) for v in range(graph.n)]
            cc_column = [float(graph.clustering_coefficient(v)) for v in range(graph.n)]
            rho = pearson(cc_column, betti_column)
            if rho is not None and rho < 0:
                hits += 1
        return hits

    er_hits = negative_count(erdos_renyi_graph(40, 146, seed) for seed in range(20))
    ba_hits = negative_count(barabasi_albert_graph(40, 4, seed) for seed in range(20))
    elapsed = time.perf_counter() - started
    ok = er_hits >= 18 and ba_hits >= 18
    acceptance(
        7,
        "clustering vs local circles is negative on synthetic families",
        ok,
        f"negative in {er_hits}/20 uniform and {ba_hits}/20 attachment instances, {elapsed:.1f}s",
    )
    assert er_hits >= 18, er_hits
    assert ba_hits >= 18, ba_hits


def _uniqueness_sides(x, u, v):
    """Both sides of the Mayer-Vietoris uniqueness law, at every degree.

    Returns (k, kernel, connecting) for k = 0..dim X, where kernel is
    dim ker(H_k(U | V) -> H_k(U) + H_k(V)) and connecting is
    beta_{k+1}(U & V) - rank(H_{k+1}(U) + H_{k+1}(V) -> H_{k+1}(U & V)),
    the rank of the connecting map; it is 0 above dim X. Exactness of the
    relative Mayer-Vietoris sequence makes the two equal.
    """
    union, meet = u | v, u & v
    sides = []
    for k in range(x.dim + 1):
        joint = vstack(induced_map_matrix(x, union, u, k), induced_map_matrix(x, union, v, k))
        kernel = local_betti(x, union)[k] - rank(joint)
        connecting = 0
        if k + 1 <= x.dim:
            difference = hstack(
                induced_map_matrix(x, u, meet, k + 1), negate(induced_map_matrix(x, v, meet, k + 1))
            )
            connecting = local_betti(x, meet)[k + 1] - rank(difference)
        sides.append((k, kernel, connecting))
    return sides


# Fixed pairs with a nonzero connecting map, so every run exercises one:
# (maximal simplices, U = star of, V = star of, expected (k, kernel,
# connecting) per degree). On the closed edge, H_0 of the whole edge is Q
# while both stars of the endpoints have H_0 = 0, and H_1 of the open edge
# connects to it. On the closed triangle, U | V = {12, 23, 123} has
# H_1 = Q (its frontier {1, 2, 3, 13} has two contractible components),
# both stars have H_1 = 0, and H_2 of the open triangle connects to it.
MAYER_VIETORIS_WITNESSES = [
    ([[0, 1]], [0], [1], [(0, 1, 1), (1, 0, 0)]),
    ([[0], [1, 2, 3], [4]], [1, 2], [2, 3], [(0, 0, 0), (1, 1, 1), (2, 0, 0)]),
]


def test_criterion_8_homology_sheaf_suite(acceptance):
    started = time.perf_counter()
    dd_failures = mv_failures = unique_failures = 0
    unique_checks = 0
    unique_witness = None
    for seed in range(50):
        rng = random.Random(4000 + seed)
        x = small_random_complex(rng)

        closed = x.closure(random_open_set(rng, x).complement())
        rep = relative_chain_complex(x, closed)
        try:
            rep.validate()
        except AssertionError:
            dd_failures += 1

        u = random_open_set(rng, x)
        v = random_open_set(rng, x)
        union, meet = u | v, u & v
        for k in range(x.dim + 1):
            bu, bv = local_betti(x, u)[k], local_betti(x, v)[k]
            if bu + bv == 0:
                continue
            joint = vstack(induced_map_matrix(x, union, u, k), induced_map_matrix(x, union, v, k))
            difference = hstack(
                induced_map_matrix(x, u, meet, k), negate(induced_map_matrix(x, v, meet, k))
            )
            if not (difference @ joint).is_zero():
                mv_failures += 1
            elif (bu + bv) - rank(difference) != rank(joint):
                mv_failures += 1

        for k, kernel, connecting in _uniqueness_sides(x, u, v):
            unique_checks += 1
            if kernel != connecting:
                unique_failures += 1
                if unique_witness is None:
                    unique_witness = (
                        sorted(x.maximal), sorted(u.members), sorted(v.members), k, kernel, connecting
                    )

    fixed_misses = []
    for maximal, u_labels, v_labels, expected in MAYER_VIETORIS_WITNESSES:
        x = SimplicialComplex.from_maximal(maximal)
        u = x.star([x.simplex_with_labels(u_labels)])
        v = x.star([x.simplex_with_labels(v_labels)])
        sides = _uniqueness_sides(x, u, v)
        if sides != expected:
            fixed_misses.append((maximal, u_labels, v_labels, sides, expected))
    elapsed = time.perf_counter() - started
    ok = (
        dd_failures == 0
        and mv_failures == 0
        and unique_failures == 0
        and not fixed_misses
        and elapsed < 60.0
    )
    acceptance(
        8,
        "homology-sheaf structural suite",
        ok,
        f"boundary-composition {dd_failures}, gluing-exactness {mv_failures}, "
        f"uniqueness (Mayer-Vietoris kernel) {unique_failures} of {unique_checks} degree "
        f"checks, {len(fixed_misses)} fixed witnesses off, {elapsed:.1f}s",
    )
    assert dd_failures == 0
    assert mv_failures == 0
    assert unique_failures == 0, (
        "kernel of the joint restriction H_k(U | V) -> H_k(U) + H_k(V) differs "
        "from the rank of the Mayer-Vietoris connecting map; first witness "
        f"(maximal, U, V, k, kernel, connecting): {unique_witness}"
    )
    assert not fixed_misses, (
        "fixed Mayer-Vietoris witnesses (maximal, U star, V star, computed, "
        f"expected (k, kernel, connecting)): {fixed_misses}"
    )
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_9_star_of_closed_vertex_fixture(acceptance):
    started = time.perf_counter()
    from localhomology import Graph

    verts = ["v", "a", "b", "c"]
    graph = Graph.from_edge_list(
        [(u, w) for i, u in enumerate(verts) for w in verts[i + 1:]]
    )
    flag = flag_complex(graph)
    v = flag.simplex_with_labels(["v"])
    star_of_closure = flag.star(flag.closure([v]))
    expected = {
        flag.simplex_with_labels(group)
        for group in (
            ["v"],
            ["v", "a"], ["v", "b"], ["v", "c"],
            ["v", "a", "b"], ["v", "a", "c"], ["v", "b", "c"],
            ["v", "a", "b", "c"],
        )
    }
    elapsed = time.perf_counter() - started
    ok = star_of_closure.members == expected
    acceptance(9, "star of a closed vertex in the four-clique", ok, f"{elapsed:.2f}s")
    assert star_of_closure.members == expected
