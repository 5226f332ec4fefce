import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from localhomology import (
    Graph,
    MalformedInputError,
    UnknownVertexError,
    flag_complex,
    format_edge_list,
    karate_graph,
    maximal_cliques,
    parse_edge_list,
)

from util import oracle_flag_complex


@pytest.fixture
def k4():
    # Four mutually adjacent vertices; vertex 3 plays the hub role.
    return Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def random_graph(rng, n, p=0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


# -- construction ------------------------------------------------------------


def test_path_degrees():
    g = Graph.from_edge_list([(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_duplicate_edges_collapse():
    g = Graph.from_edge_list([(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_loop_rejected():
    with pytest.raises(MalformedInputError):
        Graph.from_edge_list([(2, 2)])


def test_karate_shape():
    g = karate_graph()
    assert g.n == 34
    assert g.edge_count == 78
    assert g.is_connected()


def test_isolated_vertices_via_count():
    g = Graph.from_edge_list([(0, 1)], n=4)
    assert g.n == 4
    assert g.degree(3) == 0


def test_unknown_vertex():
    g = Graph.from_edge_list([(0, 1)])
    with pytest.raises(UnknownVertexError):
        g.degree(5)


# -- neighborhoods and clustering --------------------------------------------


def test_open_neighborhood_of_hub(k4):
    nb = k4.open_neighborhood(3)
    assert nb.n == 3
    assert nb.edge_count == 3  # neighbors of the hub form a triangle


def test_open_neighborhood_of_isolated():
    g = Graph.from_edge_list([(0, 1)], n=3)
    assert g.open_neighborhood(2).n == 0


def test_star_graph_center_neighborhood_is_edgeless():
    g = Graph.from_edge_list([(0, i) for i in range(1, 5)])
    nb = g.open_neighborhood(0)
    assert nb.n == 4
    assert nb.edge_count == 0


def test_clustering_values(k4):
    assert k4.clustering_coefficient(3) == 1
    path = Graph.from_edge_list([(0, 1), (1, 2)])
    assert path.clustering_coefficient(1) == 0
    assert path.clustering_coefficient(0) == 0  # degree below two
    g5 = Graph.from_edge_list([(0, 1), (0, 2), (0, 3), (1, 2)])
    assert g5.clustering_coefficient(0) == Fraction(1, 3)


def test_connected_components():
    assert Graph(0, []).connected_components() == 0
    two = Graph.from_edge_list([(0, 1), (2, 3)])
    assert two.connected_components() == 2


# -- cliques and flag complexes ----------------------------------------------


def test_triangle_graph_flag():
    g = Graph.from_edge_list([(0, 1), (1, 2), (0, 2)])
    fc = flag_complex(g)
    assert fc.maximal == frozenset({(0, 1, 2)})


def test_square_flag_has_no_triangles():
    g = Graph.from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3)])
    fc = flag_complex(g)
    assert fc.dim == 1
    assert len(fc.maximal) == 4


def test_k4_flag_is_one_solid_simplex(k4):
    fc = flag_complex(k4)
    assert fc.maximal == frozenset({(0, 1, 2, 3)})
    assert fc.dim == 3


def test_flag_vertex_ids_match_graph_ids():
    g = Graph.from_edge_list([(5, 3), (3, 7)])
    fc = flag_complex(g)
    assert fc.n_vertices == g.n
    for v in range(g.n):
        assert fc.labels[v] == g.labels[v]
        assert (v,) in fc


def test_flag_complex_equals_the_interning_route():
    rng = random.Random(23)
    graphs = [Graph(0, []), Graph(3, []), karate_graph()]
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, p=rng.choice([0.1, 0.3, 0.6]))
        labels = rng.sample(list(range(-n, n)) + [f"v{i}" for i in range(n)], n)
        graphs += [g, Graph(n, g.edges, labels=labels)]
    for g in graphs:
        ours, oracle = flag_complex(g), oracle_flag_complex(g)
        assert (ours.maximal, ours.labels) == (oracle.maximal, oracle.labels)


def test_flag_faces_are_exactly_cliques():
    rng = random.Random(3)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8))
        fc = flag_complex(g)
        faces = set(fc.all_faces())
        for size in range(1, g.n + 1):
            for group in combinations(range(g.n), size):
                is_clique = all(g.has_edge(u, v) for u, v in combinations(group, 2))
                assert (group in faces) == is_clique


def test_link_skeleton_is_open_neighborhood():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 8))
        fc = flag_complex(g)
        for v in range(g.n):
            link = fc.link([(v,)])
            nb = g.open_neighborhood(v)
            link_vertices = {s[0] for s in link.members if len(s) == 1}
            link_edges = {s for s in link.members if len(s) == 2}
            expected_vertices = set(g.neighbors(v))
            expected_edges = {
                tuple(sorted((nb.labels[a], nb.labels[b]))) for a, b in nb.edges
            }
            assert link_vertices == expected_vertices
            assert link_edges == expected_edges


def test_closed_star_skeleton_is_closed_neighborhood():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 8))
        fc = flag_complex(g)
        for v in range(g.n):
            closed_star = fc.closure(fc.star([(v,)]))
            vertices = {s[0] for s in closed_star.members if len(s) == 1}
            assert vertices == set(g.neighbors(v)) | {v}


def test_bron_kerbosch_properties():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 9))
        cliques = maximal_cliques(g)
        seen = set(cliques)
        assert len(seen) == len(cliques)
        for c in cliques:
            assert all(g.has_edge(u, v) for u, v in combinations(c, 2))
        for a in cliques:
            for b in cliques:
                assert a == b or not set(a) <= set(b)
        covered = {(u, v) for c in cliques for u, v in combinations(sorted(c), 2)}
        assert covered == set(g.edges)
        assert {v for c in cliques for v in c} == set(range(g.n))


def test_degenerate_graphs():
    empty = Graph(0, [])
    assert maximal_cliques(empty) == []
    assert flag_complex(empty).dim == -1
    edgeless = Graph(3, [])
    assert maximal_cliques(edgeless) == [(0,), (1,), (2,)]
    fc = flag_complex(edgeless)
    assert fc.dim == 0
    assert len(fc) == 3


def test_bron_kerbosch_matches_networkx_on_karate():
    g = karate_graph()
    ours = set(maximal_cliques(g))
    nxg = nx.Graph(list(g.edges))
    nxg.add_nodes_from(range(g.n))
    theirs = {tuple(sorted(c)) for c in nx.find_cliques(nxg)}
    assert ours == theirs


# -- files -------------------------------------------------------------------


def test_edge_list_round_trip():
    g = Graph.from_edge_list([(0, 1), (1, 2)], n=5)
    text = format_edge_list(g)
    back = parse_edge_list(text)
    assert back.n == 5
    assert back.edges == g.edges


def test_edge_list_comments_and_header():
    text = "# a comment\nn=4\n0 1  # trailing\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edges == ((0, 1), (2, 3))


def test_edge_list_string_labels():
    g = parse_edge_list("alice bob\nbob carol\n")
    assert g.n == 3
    assert g.labels == ("alice", "bob", "carol")
    # An optional minus and then digits is an integer; anything else is a string.
    g = parse_edge_list("--5 3\n1 \u00b2\n-7 007\n")
    assert g.labels == (3, "--5", 1, "\u00b2", -7, 7)


def test_graph_labels_must_be_distinct_and_hashable():
    with pytest.raises(MalformedInputError):
        Graph(3, [(0, 1)], labels=["a", "a", "b"])
    with pytest.raises(MalformedInputError):
        Graph(2, [(0, 1)], labels=[[1], 2])
    with pytest.raises(MalformedInputError):
        Graph.from_edge_list([([1], 2)])


def test_edge_list_malformed():
    with pytest.raises(MalformedInputError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(MalformedInputError):
        parse_edge_list("n=x\n0 1\n")
    with pytest.raises(MalformedInputError):
        parse_edge_list("3 3\n")
