import json
import random
from itertools import combinations

import pytest

from localhomology import (
    MalformedInputError,
    MalformedSimplexError,
    PreconditionError,
    SimplexSet,
    SimplicialComplex,
    UnknownSimplexError,
    complex_from_json_dict,
    complex_to_json_dict,
    erdos_renyi_graph,
    filtration_persistence,
    flag_complex,
    global_betti,
    homology_basis,
    local_betti,
    local_betti_at,
    local_profile,
    planar_grid_graph,
    profile_many,
    relative_chain_complex,
)

from util import (
    labels_of,
    naive_closure,
    naive_components,
    naive_contains,
    naive_maximal,
    naive_star,
    random_complex,
    torus_complex,
    vertex_set,
)

from localhomology.complexes import _ascending


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


def test_simplex_that_is_not_iterable_rejected():
    for simplices in ([5], [[0, 1], None]):
        with pytest.raises(MalformedSimplexError, match="not a group"):
            SimplicialComplex.from_maximal(simplices)


def test_interning_is_dense_and_deterministic():
    x = SimplicialComplex.from_maximal([["c", "a"], ["b", "a"]])
    # Encounter order with in-simplex label sorting: a, c, then b.
    assert x.labels == ("a", "c", "b")
    assert x.simplex_with_labels(["a"]) == (0,)
    assert labels_of(x, (0, 1)) == ("a", "c")


def test_equal_labels_of_different_types_are_refused():
    with pytest.raises(MalformedSimplexError, match="True and 1"):
        SimplicialComplex.from_maximal([[True, 2], [1, 3]])
    with pytest.raises(MalformedSimplexError, match="1 and 1.0"):
        SimplicialComplex.from_maximal([[1, 2], [1.0]])


def test_huge_simplex_fails_fast_without_enumerating_faces():
    # One 40-vertex simplex has 2^40 - 1 faces. Construction, membership and
    # the dimension never enumerate them; anything that reads the face index,
    # a simplex set included, is refused up front.
    x = SimplicialComplex.from_maximal([range(40)])
    assert x.dim == 39
    assert (0, 17, 39) in x and (0, 40) not in x
    for enumerate_faces in (
        lambda: global_betti(x),
        lambda: local_betti_at(x, (3,)),
        lambda: local_profile(x, (3,), 0),
        lambda: filtration_persistence(x, (3,), 0, 0),
        lambda: x.star([(3,)]),
        lambda: len(x),
        lambda: x.simplex_set([(3,)]),
        lambda: x.empty_set(),
        lambda: SimplexSet(x, [(3,)]),
        lambda: SimplexSet(x, ()),
        lambda: x.cofacets((0, 40)),
    ):
        with pytest.raises(PreconditionError, match=str(2**40 - 1)):
            enumerate_faces()
    assert (0, 17, 39) in x and x.dim == 39


def test_simplex_lookup_errors(triangle):
    with pytest.raises(UnknownSimplexError):
        triangle.simplex_with_labels(["a", "z"])
    with pytest.raises(MalformedSimplexError):
        triangle.simplex_with_labels(["a", "a"])
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


def test_face_enumeration_matches_every_subset_of_every_maximal_simplex():
    rng = random.Random(53)
    complexes = [SimplicialComplex.from_maximal([])]
    complexes += [
        random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        for _ in range(100)
    ]
    for x in complexes:
        subsets = {f for m in x.maximal for r in range(1, len(m) + 1) for f in combinations(m, r)}
        naive = sorted(subsets, key=lambda f: (len(f), f))
        assert list(x.all_faces()) == naive and list(x) == naive
        assert len(x) == len(naive)
        for k in range(x.dim + 3):  # two dimensions past the top are empty
            assert x.faces(k) == tuple(f for f in naive if len(f) == k + 1)
        with pytest.raises(ValueError):
            x.faces(-1)


def test_facet_table_drops_vertex_j_at_place_j():
    # facets[i][j] is the id of face i with its j-th vertex dropped; a vertex has none.
    rng = random.Random(59)
    complexes = [
        SimplicialComplex.from_maximal([]),
        SimplicialComplex.from_maximal([[v] for v in range(5)]),
        SimplicialComplex.from_maximal([range(6)]),
    ]
    complexes += [
        random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        for _ in range(60)
    ]
    for x in complexes:
        index = x._face_index()
        assert len(index.facets) == len(index.faces)
        for i, s in enumerate(index.faces):
            if len(s) == 1:
                assert index.facets[i] == ()
            else:
                assert index.facets[i] == tuple(index.ids[s[:j] + s[j + 1:]] for j in range(len(s)))


@pytest.mark.parametrize("k", [1.5, "1", True, 1.0, None], ids=["half", "str", "bool", "float_one", "none"])
def test_face_dimension_that_is_not_an_int_refused(k, triangle):
    # True was read as 1, and 1.5 or "1" raised a bare TypeError.
    with pytest.raises(ValueError, match="must be non-negative and an int"):
        triangle.faces(k)


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
    assert [sum(len(s) - 1 == k for s in star.members) for k in range(4)] == [1, 3, 3, 1]
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
    # Arbitrary subsets, not only closed ones, both dense (2|A| > |X|) and
    # sparse; the one closure loop answers both.
    rng = random.Random(31)
    counts = {"dense": 0, "sparse": 0}
    for _ in range(300):
        x = random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        faces = sorted(x.all_faces())
        density = rng.random()
        chosen = [f for f in faces if rng.random() < density]
        counts["dense" if 2 * len(chosen) > len(faces) else "sparse"] += 1
        for subset in (chosen, [], faces):
            rest = set(faces) - set(subset)
            assert x.closure(subset).members == naive_closure(subset)
            assert x.frontier(subset).members == naive_closure(subset) & naive_closure(rest)
    assert min(counts.values()) >= 50


def test_star_and_is_open_match_naive_coface_scan():
    # Arbitrary subsets (most of them not open), the empty set and the full
    # set; closed sets over half of X are dense inputs to closure.
    rng = random.Random(37)
    counts = {"not open": 0, "dense closed": 0}
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
            assert x.closure(closed) is closed
            counts["dense closed"] += 1
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


def test_simplex_set_membership_reads_the_mask():
    # A list or an unhashable tuple once raised TypeError from the members
    # frozenset; every query now gets the members' answer or False.
    rng = random.Random(61)
    for _ in range(50):
        x = random_complex(rng, n_vertices=rng.randint(1, 7), n_maximal=rng.randint(1, 5), max_size=4)
        faces = sorted(x.all_faces())
        subset = x.simplex_set(f for f in faces if rng.random() < 0.5)
        for a in (subset, x.star(subset), x.closure(subset)):
            for q in faces + [(0, 0), (11,), (1, 0)]:
                assert (q in a) == (q in a.members), q
            for q in ([0], [1], ([0],), (0, [1]), {0}, None, "0", 0, ()):
                assert q not in a, q
    x = SimplicialComplex.from_maximal([[0, 1, 2], [2, 3]])
    assert [1] not in x.star([(2,)]) and [1] not in x


def test_unhashable_vertex_is_unknown():
    # A tuple seed holding a list, before and after the face index is built.
    for built in (False, True):
        x = SimplicialComplex.from_maximal([[0, 1], [1, 2]])
        if built:
            assert len(x) == 5
        assert ([0],) not in x
        with pytest.raises(UnknownSimplexError, match="is not a face of the complex"):
            x.simplex_set([([0],)])
        with pytest.raises(UnknownSimplexError, match="unknown vertex label"):
            x.simplex_with_labels([[0]])


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
        seed_vertices = vertex_set(seed_set)
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


def test_connected_components_match_pairwise_oracle():
    # Arbitrary subsets, most of them not closed: a member joins a member
    # two or more dimensions below it even when nothing in between is in the set.
    rng = random.Random(43)
    not_closed = 0
    for _ in range(300):
        x = random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        faces = sorted(x.all_faces())
        density = rng.random()
        chosen = [f for f in faces if rng.random() < density]
        for subset in (chosen, [], faces):
            assert x.simplex_set(subset).connected_components() == naive_components(subset)
        not_closed += naive_closure(chosen) != frozenset(chosen)
    assert not_closed >= 100
    skip = SimplicialComplex.from_maximal([[0, 1, 2], [3]])
    assert skip.simplex_set([(0,), (0, 1, 2), (3,)]).connected_components() == 2
    # Flag complexes of seeded graphs: a face's star complement, the set
    # whose components criterion 3 counts, along with open sets (stars,
    # unions of them), closed sets (closures, frontiers) and the face alone.
    graphs = [erdos_renyi_graph(14, rng.randint(13, 40), seed) for seed in range(4)]
    graphs += [planar_grid_graph(w, h, 0.5, seed) for seed, (w, h) in enumerate([(3, 3), (4, 3), (4, 4)])]
    for graph in graphs:
        x = flag_complex(graph)
        faces = sorted(x.all_faces())
        for face in rng.sample(faces, 6):
            star = x.star([face])
            opened = star | x.star(rng.sample(faces, 2))
            for subset in (star.complement(), star, opened, x.closure(star), x.frontier(opened), x.simplex_set([face])):
                assert subset.connected_components() == naive_components(subset.members)


def test_simplex_set_constructor_rejects_non_faces():
    # Non-faces, unknown vertices, vertices out of order or repeated, and
    # non-tuples, lists included; checked both before and after the face
    # index exists.
    x = SimplicialComplex.from_maximal([[0, 1, 2]])
    bad = [(0, 5), (5,), (1, 0), (0, 0), (0, 1, 2, 3), (), 0, "0", [0], [0, 1]]
    for built in (False, True):
        if built:
            assert len(x.full_set()) == 7
        # Alone, a member takes the one-bit route; beside a face, the bitmap.
        for member in bad:
            for members in ([member], [(0, 1), member], [member, (2,)]):
                with pytest.raises(UnknownSimplexError, match="is not a face of the complex"):
                    SimplexSet(x, members)
        assert SimplexSet(x, [(0, 1), (2,)]) == x.simplex_set([(2,), (0, 1)])


def test_one_face_set_is_its_bit():
    # A set of one face is the bit 1 << id, with no bitmap of the complex's
    # width; it equals the bitmap route, here a repeated member.
    rng = random.Random(30)
    complexes = [torus_complex(), flag_complex(erdos_renyi_graph(60, 300, 30))]
    complexes += [
        random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        for _ in range(20)
    ]
    for x in complexes:
        ids = x._face_index().ids
        for f in x.all_faces():
            one = SimplexSet(x, [f])
            assert one.mask == 1 << ids[f]
            assert one == x.simplex_set([f, f])
            assert one.members == {f}


def test_ascending_decodes_masks_on_both_routes():
    # Against a bit scan. A mask with fewer than 16 set bits has its lowest
    # set bit split off one at a time, one with more is decoded from its zero
    # runs; masks with 15 and 16 set bits, narrow and wide, check the edge.
    def scan(mask):
        return [i for i, digit in enumerate(reversed(format(mask, "b"))) if digit == "1"]

    def few(mask):
        return mask.bit_count() < 16

    rng = random.Random(61)
    masks = [0, 1, 1 << 40_000, (1 << 900) - 1, (1 << 36_000) | 1 << 17_000 | 1]
    for bits in (15, 16):
        for length in (bits, bits + 1, 64, 1_000, 36_000):
            low = rng.sample(range(length - 1), bits - 1)
            masks.append(sum(1 << i for i in low) | 1 << (length - 1))
    for _ in range(200):
        length = rng.choice([1, 2, 63, 64, 65, 130, 1_000, 36_000])
        density = rng.choice([0.001, 0.01, 1 / 64, 0.05, 0.5, 1.0])
        masks.append(sum(1 << i for i in range(length) if rng.random() < density))
    routes = {True: 0, False: 0}
    for mask in masks:
        routes[few(mask)] += 1
        assert list(_ascending(mask)) == scan(mask)
    assert few(0) and few(1 << 40_000) and not few((1 << 900) - 1)
    assert min(routes.values()) > 50


def test_mask_operators_match_naive_oracles():
    # Every operator against the oracles, on sets built from members and on
    # the same sets built by operators from masks; closure on dense
    # (2|A| > |X|) and sparse inputs.
    rng = random.Random(47)
    counts = {"not closed": 0, "dense": 0, "sparse": 0}
    complexes = [SimplicialComplex.from_maximal([])]
    complexes += [
        random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        for _ in range(150)
    ]
    for x in complexes:
        faces = sorted(x.all_faces())
        everything = frozenset(faces)
        pairs = []
        for _ in range(2):
            density = rng.random()
            pairs.append([f for f in faces if rng.random() < density])
        for chosen in pairs + [[], faces]:
            a = frozenset(chosen)
            by_members = x.simplex_set(chosen)
            # The same faces as an operator result: the complement of the complement.
            by_mask = x.simplex_set(chosen).complement().complement()
            assert by_members.mask == sum(1 << x._face_index().ids[s] for s in chosen)
            assert hash(by_mask) == hash(by_members) and by_mask == by_members
            assert by_mask.members == a and len(by_mask) == len(a)
            assert list(by_mask) == sorted(a)
            star, closure = naive_star(x, a), naive_closure(a)
            rest = everything - a
            counts["not closed"] += closure != a
            counts["dense" if 2 * len(a) > len(faces) else "sparse"] += 1
            for subset in (by_members, by_mask):
                assert x.star(subset).members == star
                assert x.closure(subset).members == closure
                assert x.frontier(subset).members == closure & naive_closure(rest)
                assert x.link(subset).members == naive_closure(star) - (star | closure)
                assert x.is_open(subset) == (star == a)
                assert x.is_closed(subset) == (closure == a)
                assert subset.complement().members == rest
            other = x.simplex_set(pairs[0])
            assert (by_mask | other).members == a | set(pairs[0])
            assert (by_mask & other).members == a & set(pairs[0])
        assert x.full_set().members == everything and x.empty_set().members == frozenset()
        for s in faces:
            ups = tuple(sorted(f for f in faces if len(f) == len(s) + 1 and set(s) <= set(f)))
            assert x.cofacets(s) == ups
    assert min(counts.values()) >= 50


def _assert_facts_hold(x, subset):
    # Every fact a set was made with, and its cached closure, must be true of its members.
    members = subset.members
    if subset._open:
        assert naive_star(x, members) == members
    if subset._closed:
        assert naive_closure(members) == members
    if subset._closure is not None:
        assert subset._closure is not subset
        assert subset._closure.members == naive_closure(members)
        assert subset._closure._closed


def test_chained_operators_match_naive_oracles_and_record_only_true_facts():
    # Operators applied to operator results, whose facts let star
    # and closure skip the masks, against the oracles on every result.
    rng = random.Random(53)
    for _ in range(120):
        x = random_complex(rng, n_vertices=rng.randint(1, 8), n_maximal=rng.randint(1, 6), max_size=5)
        faces = sorted(x.all_faces())
        everything = frozenset(faces)
        density = rng.random()
        chosen = [f for f in faces if rng.random() < density]
        a = frozenset(chosen)
        user = x.simplex_set(chosen)
        results = [user]

        # is_open and is_closed on a user-built set, twice: the second is_closed reads the cached closure.
        for _ in range(2):
            assert x.is_open(user) == (naive_star(x, a) == a)
            assert x.is_closed(user) == (naive_closure(a) == a)

        star = x.star(user)
        assert star.members == naive_star(x, a)
        star_star = x.star(star)
        assert star_star.members == star.members
        assert x.is_open(star) and x.is_open(star_star)
        results += [star, star_star]

        closure = x.closure(user)
        closure_closure = x.closure(closure)
        assert closure.members == naive_closure(a) == closure_closure.members
        assert x.closure(user).members == closure.members  # from the cached closure
        assert x.is_closed(closure) and x.is_closed(closure_closure)
        results += [closure, closure_closure]

        # The complement of an open set is closed, and its closure is itself.
        rest = star.complement()
        assert rest.members == everything - star.members
        assert x.closure(rest).members == rest.members
        assert x.is_closed(rest) and x.is_open(closure.complement())
        results += [rest, closure.complement(), x.closure(rest)]

        for subset in (star, closure, user):
            cl_rest = naive_closure(everything - subset.members)
            frontier = x.frontier(subset)
            assert frontier.members == naive_closure(subset.members) & cl_rest
            assert x.is_closed(frontier)
            link = x.link(subset)
            st = naive_star(x, subset.members)
            assert link.members == naive_closure(st) - (st | naive_closure(subset.members))
            results += [frontier, frontier.complement(), link]

        neighborhood = x.star(x.closure(star))
        assert neighborhood.members == naive_star(x, naive_closure(star.members))
        results += [neighborhood, x.full_set(), x.full_set().complement(), x.empty_set()]
        for subset in results:
            _assert_facts_hold(x, subset)
            # Equality compares masks, so each result's mask meets the oracle's.
            assert x.star(subset) == x.simplex_set(naive_star(x, subset.members))
            assert x.closure(subset) == x.simplex_set(naive_closure(subset.members))
            _assert_facts_hold(x, subset)


def test_facts_are_fixed_when_a_set_is_made():
    # No operator writes open or closed on a set it is given: a set built
    # from members stays unknown however often it is tested, star and
    # closure return new sets for it, and the closure is cached.
    x = SimplicialComplex.from_maximal([[0, 1, 2], [2, 3]])
    open_members = x.simplex_set(x.star([(2,)]))
    closed_members = x.simplex_set(x.closure([(0, 1)]))
    for subset, is_open in ((open_members, True), (closed_members, False)):
        for _ in range(2):
            assert x.is_open(subset) == is_open
            assert x.is_closed(subset) != is_open
        assert not subset._open and not subset._closed
    star = x.star(open_members)
    assert star == open_members and star is not open_members and x.star(star) is star
    closure = x.closure(closed_members)
    assert closure == closed_members and closure is not closed_members
    assert x.closure(closed_members) is closure and x.closure(closure) is closure
    for made in (x.empty_set(), x.full_set()):
        assert made._open and made._closed
        assert x.star(made) is made and x.closure(made) is made
    assert (star | closure)._open is False and (star & closure)._closed is False


def _sets_made_every_way(x, chosen_faces):
    # One set from each constructor and operator, on members drawn by chosen_faces.
    a, b = chosen_faces(), chosen_faces()
    user = SimplexSet(x, a)
    made = [user, x.simplex_set(b), x.full_set(), x.empty_set()]
    made += [x.star(a), x.closure(b), x.frontier(a), x.link(b), user.complement()]
    made += [x.star(b).complement(), made[1] | made[4], made[4] & made[5], made[5] | made[6]]
    return made


def _use_every_way(x, sets, seeds):
    # Every public reader on every set, twice, so the second round meets the caches.
    faces = x._face_index().faces
    for _ in range(2):
        for s in sets:
            for other in sets[:3]:
                _ = (s | other, s & other, s == other)
            _ = (x.star(s), x.closure(s), x.frontier(s), x.link(s), s.complement())
            _ = (x.is_open(s), x.is_closed(s), hash(s), repr(s), s.mask, len(s), list(s), s.members)
            _ = (s.connected_components(), [f in s for f in faces[:20]], [f in x for f in faces[:20]])
            if x.is_open(s):
                local_betti(x, s)
                homology_basis(x, s)
            if x.is_closed(s):
                relative_chain_complex(x, s)
        profile_many(x, seeds, m_max=1)
        for seed in seeds:
            filtration_persistence(x, seed, 1, 1)


_INDEX_FIELDS = ("faces", "ids", "facets", "starts", "vertex_masks", "full")


def _index_only_gained(x, before):
    # The complex and its face index keep every field, the per-vertex index
    # is at most built once, and `down` only gains entries, each the oracle's
    # closure; True when `down` gained any.
    complex_slots, fields, down = before
    index = x._face_index()
    assert all(getattr(x, name) is value for name, value in complex_slots.items() if name != "_containing")
    assert x._containing is complex_slots["_containing"] or complex_slots["_containing"] is None
    assert all(getattr(index, name) is value for name, value in fields.items())
    assert down.keys() <= index.down.keys()
    for i, mask in index.down.items():
        if i in down:
            assert mask is down[i]
        else:
            assert mask == sum(1 << index.ids[f] for f in naive_closure([index.faces[i]]))
    return len(index.down) > len(down)


def _index_snapshot(x):
    index = x._face_index()
    return (
        {name: getattr(x, name) for name in SimplicialComplex.__slots__},
        {name: getattr(index, name) for name in _INDEX_FIELDS},
        dict(index.down),
    )


def test_writes_after_construction_are_the_listed_caches():
    # After a set is made, the one slot that may change is _closure, set once
    # to the closure. While sets are made and while they are read, a complex
    # and its face index change only as _index_only_gained allows.
    rng = random.Random(31)
    complexes = [
        random_complex(rng, n_vertices=rng.randint(1, 9), n_maximal=rng.randint(1, 7), max_size=6)
        for _ in range(100)
    ]
    complexes.append(flag_complex(erdos_renyi_graph(60, 300, 31)))
    # Making the sets closes most faces, so `down` gains while they are made
    # and, mostly, keeps its entries while they are read.
    counts = {"closure cached": 0, "down gained": 0}
    for x in complexes:
        faces = sorted(x.all_faces())
        if len(faces) > 200:
            def chosen_faces():
                return rng.sample(faces, 3)
        else:
            density = rng.random()
            def chosen_faces():
                return [f for f in faces if rng.random() < density]
        seeds = rng.sample(faces, min(3, len(faces)))

        before = _index_snapshot(x)
        sets = _sets_made_every_way(x, chosen_faces)
        counts["down gained"] += _index_only_gained(x, before)

        before = _index_snapshot(x)
        set_slots = [{name: getattr(s, name) for name in SimplexSet.__slots__} for s in sets]
        _use_every_way(x, sets, seeds)
        _index_only_gained(x, before)
        for s, slots in zip(sets, set_slots):
            was, now = slots.pop("_closure"), s._closure
            assert all(getattr(s, name) is value for name, value in slots.items())
            if now is not was:
                assert was is None and now._closed
                assert now.members == naive_closure(s.members)
                counts["closure cached"] += 1
    assert min(counts.values()) >= 50


def test_set_operators_refuse_foreign_operands():
    x = SimplicialComplex.from_maximal([[0, 1]])
    y = SimplicialComplex.from_maximal([[0, 1]])
    s = x.full_set()
    for combine in (lambda a, b: a | b, lambda a, b: a & b):
        for other in (3, None, frozenset(s.members)):
            with pytest.raises(TypeError):
                combine(s, other)
            with pytest.raises(TypeError):
                combine(other, s)
        with pytest.raises(ValueError, match="^simplex set belongs to a different complex$"):
            combine(s, y.full_set())


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
    # Every non-face, an unhashable vertex included, has no cofacets.
    for not_a_face in (5,), (1, 0), ([0],), [0]:
        assert triangle.cofacets(not_a_face) == ()


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
    # A vertex id must be a non-bool int indexing "labels": no wrap-around,
    # and JSON true is not the id 1.
    for bad in ([-1, 0], [True, 0], [0, 2], [0.0, 1], ["0", 1]):
        with pytest.raises(MalformedInputError):
            complex_from_json_dict({"maximal_simplices": [bad], "labels": ["a", "b"]})
