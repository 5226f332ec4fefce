import json
import random

import pytest

from localhomology import (
    MalformedInputError,
    MalformedSimplexError,
    PreconditionError,
    SimplicialComplex,
    UnknownSimplexError,
    complex_from_json_dict,
    complex_to_json_dict,
    global_betti,
    local_betti_at,
)

from util import naive_closure, naive_contains, naive_maximal, naive_star, random_complex


@pytest.fixture
def triangle():
    return SimplicialComplex.from_maximal([["a", "b", "c"]])


@pytest.fixture
def k4_flag():
    # Four mutually adjacent vertices v, a, b, c as one solid 3-simplex.
    return SimplicialComplex.from_maximal([["v", "a", "b", "c"]])


@pytest.fixture
def k4_graph_complex():
    # Same four vertices but only the six edges, as a 1-complex.
    verts = ["v", "a", "b", "c"]
    edges = [[u, w] for i, u in enumerate(verts) for w in verts[i + 1:]]
    return SimplicialComplex.from_maximal(edges)


# -- construction ------------------------------------------------------------


def test_triangle_has_seven_faces(triangle):
    assert len(triangle) == 7
    assert triangle.dim == 2
    assert len(triangle.faces(0)) == 3
    assert len(triangle.faces(1)) == 3
    assert len(triangle.faces(2)) == 1


def test_dominated_inputs_are_dropped(triangle):
    same = SimplicialComplex.from_maximal([["a", "b"], ["b", "c"], ["a", "b", "c"]])
    assert same.maximal == triangle.maximal
    assert len(same) == 7


def test_from_maximal_matches_naive_antichain_filter():
    rng = random.Random(41)
    for _ in range(200):
        labels = rng.sample(range(100), rng.randint(1, 9))
        simplices = [rng.sample(labels, rng.randint(1, len(labels))) for _ in range(rng.randint(1, 12))]
        for _ in range(rng.randint(0, 4)):
            source = rng.choice(simplices)
            # Duplicates in another vertex order, and faces of other inputs.
            simplices.append(rng.sample(source, rng.randint(1, len(source))))
        rng.shuffle(simplices)
        x = SimplicialComplex.from_maximal(simplices)
        stored = {frozenset(x.labels[v] for v in s) for s in x.maximal}
        assert stored == naive_maximal(simplices)
        assert len(x.maximal) == len(stored)


def test_one_complex_on_k4_has_ten_faces(k4_graph_complex):
    assert k4_graph_complex.dim == 1
    assert len(k4_graph_complex.faces(0)) == 4
    assert len(k4_graph_complex.faces(1)) == 6
    assert len(k4_graph_complex) == 10


def test_empty_input_is_valid_empty_complex():
    empty = SimplicialComplex.from_maximal([])
    assert empty.dim == -1
    assert len(empty) == 0


def test_duplicate_vertex_rejected():
    with pytest.raises(MalformedSimplexError):
        SimplicialComplex.from_maximal([["a", "a", "b"]])


def test_empty_simplex_rejected():
    with pytest.raises(MalformedSimplexError):
        SimplicialComplex.from_maximal([[]])


def test_interning_is_dense_and_deterministic():
    x = SimplicialComplex.from_maximal([["c", "a"], ["b", "a"]])
    # Encounter order with in-simplex label sorting: a, c, then b.
    assert x.labels == ("a", "c", "b")
    assert x.simplex_with_labels(["a"]) == (0,)
    assert x.labels_of((0, 1)) == ("a", "c")


def test_huge_simplex_fails_fast_without_enumerating_faces():
    # One 40-vertex simplex has 2^40 - 1 faces. Construction, membership and
    # simplex-set validation never enumerate them; anything that would is
    # refused up front.
    x = SimplicialComplex.from_maximal([range(40)])
    assert x.dim == 39
    assert (0, 17, 39) in x and (0, 40) not in x
    assert len(x.simplex_set([(3,)])) == 1
    for enumerate_faces in (
        lambda: global_betti(x),
        lambda: local_betti_at(x, (3,)),
        lambda: x.star([(3,)]),
        lambda: len(x),
    ):
        with pytest.raises(PreconditionError, match=str(2**40 - 1)):
            enumerate_faces()


def test_simplex_lookup_errors(triangle):
    with pytest.raises(UnknownSimplexError):
        triangle.simplex_with_labels(["a", "z"])
    # Faces are named in ascending vertex order, without repeats.
    for not_a_face in [(5,)], [(1, 0)], [(0, 0)]:
        with pytest.raises(UnknownSimplexError):
            triangle.simplex_set(not_a_face)


# -- face enumeration --------------------------------------------------------


def test_faces_of_triangle(triangle):
    ab = triangle.simplex_with_labels(["a", "b"])
    ac = triangle.simplex_with_labels(["a", "c"])
    bc = triangle.simplex_with_labels(["b", "c"])
    assert triangle.faces(1) == tuple(sorted([ab, ac, bc]))
    assert triangle.faces(3) == ()
    with pytest.raises(ValueError):
        triangle.faces(-1)


def test_two_dimensional_faces_of_k4_flag(k4_flag):
    # By hand: the four 3-subsets of {v, a, b, c} all span cliques.
    expected = {
        k4_flag.simplex_with_labels(group)
        for group in (["v", "a", "b"], ["v", "a", "c"], ["v", "b", "c"], ["a", "b", "c"])
    }
    assert set(k4_flag.faces(2)) == expected
    assert len(k4_flag) == 15


def test_downward_closure_property():
    rng = random.Random(5)
    for _ in range(20):
        x = random_complex(rng)
        faces = set(x.all_faces())
        for s in faces:
            for i in range(len(s)):
                sub = s[:i] + s[i + 1:]
                if sub:
                    assert sub in faces


# -- operators ---------------------------------------------------------------


def test_star_of_vertex_in_triangle(triangle):
    a = triangle.simplex_with_labels(["a"])
    star = triangle.star([a])
    expected = {
        a,
        triangle.simplex_with_labels(["a", "b"]),
        triangle.simplex_with_labels(["a", "c"]),
        triangle.simplex_with_labels(["a", "b", "c"]),
    }
    assert star.members == expected


def test_star_of_empty_set_is_empty(triangle):
    assert len(triangle.star([])) == 0


def test_star_of_v_in_k4_flag(k4_flag):
    v = k4_flag.simplex_with_labels(["v"])
    star = k4_flag.star([v])
    # v itself, three edges, three 2-dimensional faces, one 3-dimensional.
    assert len(star) == 8
    by_dim = star.by_dimension()
    assert [len(by_dim.get(k, ())) for k in range(4)] == [1, 3, 3, 1]
    assert all(v[0] in s for s in star.members)


def test_closure_of_triangle_face(triangle):
    abc = triangle.simplex_with_labels(["a", "b", "c"])
    assert triangle.closure([abc]).members == set(triangle.all_faces())


def test_closure_idempotent_and_contains(triangle):
    rng = random.Random(9)
    for _ in range(20):
        x = random_complex(rng)
        faces = sorted(x.all_faces())
        if not faces:
            continue
        subset = x.simplex_set(rng.sample(faces, rng.randint(1, len(faces))))
        cl = x.closure(subset)
        st = x.star(subset)
        assert subset.members <= cl.members
        assert subset.members <= st.members
        assert x.closure(cl).members == cl.members
        assert x.star(st).members == st.members


def test_closure_and_frontier_match_naive_subset_enumeration():
    # Arbitrary subsets, not only closed ones, on both sides of the switch
    # between the two closure routes at 2|A| = |X|.
    rng = random.Random(31)
    routes = {"large": 0, "small": 0}
    for _ in range(300):
        x = random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        faces = sorted(x.all_faces())
        density = rng.random()
        chosen = [f for f in faces if rng.random() < density]
        routes["large" if 2 * len(chosen) > len(faces) else "small"] += 1
        for subset in (chosen, [], faces):
            rest = set(faces) - set(subset)
            assert x.closure(subset).members == naive_closure(subset)
            assert x.frontier(subset).members == naive_closure(subset) & naive_closure(rest)
    assert min(routes.values()) >= 50


def test_star_and_is_open_match_naive_coface_scan():
    # Arbitrary subsets (most of them not open), the empty set and the full
    # set; closed sets over half of X take closure's large route.
    rng = random.Random(37)
    counts = {"not open": 0, "large closed": 0}
    for _ in range(300):
        x = random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        faces = sorted(x.all_faces())
        density = rng.random()
        chosen = [f for f in faces if rng.random() < density]
        for subset in (chosen, [], faces):
            star = naive_star(x, subset)
            assert x.star(subset).members == star
            assert x.is_open(subset) == (star == frozenset(subset))
            counts["not open"] += star != frozenset(subset)
        closed = x.closure(chosen)
        if 2 * len(closed) > len(faces):
            # Nothing to add, so the input comes back as it is, not copied.
            assert x.closure(closed).members is closed.members
            counts["large closed"] += 1
    assert min(counts.values()) >= 50


def test_closure_adds_face_whose_coface_but_no_cofacet_is_in_input():
    x = SimplicialComplex.from_maximal([[0, 1, 2]])
    subset = [(0, 1, 2), (1,), (2,), (1, 2)]
    assert 2 * len(subset) > len(x)
    assert not set(x.cofacets((0,))) & set(subset)
    assert x.closure(subset).members == set(x.all_faces())


def test_membership_matches_naive_scan():
    rng = random.Random(32)
    for _ in range(200):
        x = random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        queries = list(x.all_faces())
        for _ in range(30):
            # Ids up to 11 include vertices the complex does not have.
            size = rng.randint(1, 5)
            queries.append(tuple(sorted(rng.sample(range(12), size))))
        queries += [(), [0], 0, "0", None, frozenset({0}), (0, 0)]
        for q in queries:
            assert (q in x) == naive_contains(x, q), q


def test_closure_of_edge(k4_graph_complex):
    va = k4_graph_complex.simplex_with_labels(["v", "a"])
    cl = k4_graph_complex.closure([va])
    assert cl.members == {va, (va[0],), (va[1],)}


def test_link_of_v_in_k4_flag_is_closed_opposite_triangle(k4_flag):
    v = k4_flag.simplex_with_labels(["v"])
    link = k4_flag.link([v])
    abc = k4_flag.simplex_with_labels(["a", "b", "c"])
    assert link.members == k4_flag.closure([abc]).members
    assert len(link) == 7


def test_link_of_path_midpoint():
    path = SimplicialComplex.from_maximal([["a", "b"], ["b", "c"]])
    b = path.simplex_with_labels(["b"])
    link = path.link([b])
    assert link.members == {
        path.simplex_with_labels(["a"]),
        path.simplex_with_labels(["c"]),
    }


def test_link_of_everything_is_empty(triangle):
    assert len(triangle.link(triangle.full_set())) == 0


def test_link_vertex_disjoint_characterization_on_vertex_seeds():
    # For seeds made of vertices, the set formula agrees with "faces of
    # cl star A avoiding the seed's vertex set".
    rng = random.Random(13)
    for _ in range(20):
        x = random_complex(rng)
        vertices = list(x.faces(0))
        if not vertices:
            continue
        seeds = rng.sample(vertices, rng.randint(1, min(3, len(vertices))))
        seed_set = x.simplex_set(seeds)
        seed_vertices = seed_set.vertex_set()
        formula = x.link(seed_set)
        alternative = {
            s
            for s in x.closure(x.star(seed_set)).members
            if not (set(s) & seed_vertices)
        }
        assert formula.members == alternative


def test_frontier_of_vertex_star_in_one_complex():
    star_graph = SimplicialComplex.from_maximal([[0, 1], [0, 2], [0, 3]])
    center = star_graph.simplex_with_labels([0])
    frontier = star_graph.frontier(star_graph.star([center]))
    assert frontier.members == {
        star_graph.simplex_with_labels([1]),
        star_graph.simplex_with_labels([2]),
        star_graph.simplex_with_labels([3]),
    }


def test_frontier_of_whole_and_empty(triangle):
    assert len(triangle.frontier(triangle.full_set())) == 0
    assert len(triangle.frontier([])) == 0


def test_open_closed_predicates(triangle):
    ab = triangle.simplex_with_labels(["a", "b"])
    lone_edge = triangle.simplex_set([ab])
    assert not triangle.is_open(lone_edge)
    assert not triangle.is_closed(lone_edge)
    assert triangle.is_open(triangle.star([ab]))
    assert triangle.is_closed(triangle.closure([ab]))


def test_duality_and_subcomplex_characterization():
    rng = random.Random(21)
    for _ in range(30):
        x = random_complex(rng)
        faces = sorted(x.all_faces())
        if not faces:
            continue
        subset = x.simplex_set(rng.sample(faces, rng.randint(0, len(faces))))
        assert x.is_closed(subset) == x.is_open(subset.complement())
        downward_closed = all(
            sub in subset.members
            for s in subset.members
            for i in range(len(s))
            if (sub := s[:i] + s[i + 1:])
        )
        assert x.is_closed(subset) == downward_closed


def test_intersections_of_open_sets_are_open():
    rng = random.Random(33)
    for _ in range(20):
        x = random_complex(rng)
        faces = sorted(x.all_faces())
        if not faces:
            continue
        opens = []
        for _ in range(3):
            seeds = rng.sample(faces, rng.randint(1, min(3, len(faces))))
            union = x.star(seeds[:1])
            for s in seeds[1:]:
                union = union | x.star([s])
            opens.append(union)
        meet = opens[0]
        for other in opens[1:]:
            meet = meet & other
        assert x.is_open(meet)


def test_simplex_set_components():
    two_edges = SimplicialComplex.from_maximal([[0, 1], [2, 3]])
    assert two_edges.full_set().connected_components() == 2
    assert two_edges.empty_set().connected_components() == 0
    mixed = two_edges.simplex_set([(0,), (2, 3)])
    assert mixed.connected_components() == 2
    chain = two_edges.simplex_set([(0,), (0, 1)])
    assert chain.connected_components() == 1


def test_cofacets(triangle):
    a = triangle.simplex_with_labels(["a"])
    ups = triangle.cofacets(a)
    assert sorted(ups) == sorted(
        [
            triangle.simplex_with_labels(["a", "b"]),
            triangle.simplex_with_labels(["a", "c"]),
        ]
    )
    abc = triangle.simplex_with_labels(["a", "b", "c"])
    assert triangle.cofacets(abc) == ()


# -- JSON --------------------------------------------------------------------


def test_json_round_trip(k4_flag):
    data = complex_to_json_dict(k4_flag)
    back = complex_from_json_dict(json.loads(json.dumps(data)))
    assert back.maximal == k4_flag.maximal
    assert back.labels == k4_flag.labels


def test_json_plain_input_without_labels():
    x = complex_from_json_dict({"maximal_simplices": [["a", "b"], ["b", "c"]]})
    assert x.dim == 1
    assert len(x) == 5


def test_json_malformed_rejected():
    with pytest.raises(MalformedInputError):
        complex_from_json_dict({"simplices": []})
    with pytest.raises(MalformedInputError):
        complex_from_json_dict({"maximal_simplices": "nope"})
    with pytest.raises(MalformedInputError):
        complex_from_json_dict({"maximal_simplices": [[0, 1]], "labels": [0]})
    with pytest.raises(MalformedInputError):
        complex_from_json_dict({"maximal_simplices": [[0], [1]], "labels": ["a", "a"]})
