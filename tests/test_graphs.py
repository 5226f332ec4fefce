import random
import re
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from localhomology import (
    Graph,
    MalformedInputError,
    PreconditionError,
    UnknownVertexError,
    barabasi_albert_graph,
    erdos_renyi_graph,
    flag_complex,
    format_edge_list,
    karate_graph,
    maximal_cliques,
    parse_edge_list,
    planar_grid_graph,
)
from localhomology.graphs import parse_label

from util import open_neighborhood, oracle_flag_complex, oracle_maximal_cliques, random_connected_graph


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
    nb = open_neighborhood(k4, 3)
    assert nb.n == 3
    assert nb.edge_count == 3  # neighbors of the hub form a triangle


def test_open_neighborhood_of_isolated():
    g = Graph.from_edge_list([(0, 1)], n=3)
    assert open_neighborhood(g, 2).n == 0


def test_star_graph_center_neighborhood_is_edgeless():
    g = Graph.from_edge_list([(0, i) for i in range(1, 5)])
    nb = open_neighborhood(g, 0)
    assert nb.n == 4
    assert nb.edge_count == 0


def test_clustering_values(k4):
    assert k4.clustering_coefficient(3) == 1
    path = Graph.from_edge_list([(0, 1), (1, 2)])
    assert path.clustering_coefficient(1) == 0
    assert path.clustering_coefficient(0) == 0  # degree below two
    g5 = Graph.from_edge_list([(0, 1), (0, 2), (0, 3), (1, 2)])
    assert g5.clustering_coefficient(0) == Fraction(1, 3)


def test_clustering_counts_the_triangles_networkx_counts():
    # clustering(v) * C(deg v, 2) is the number of triangles at v.
    rng = random.Random(99)
    graphs = [karate_graph()]
    for _ in range(50):
        n = rng.randint(2, 14)
        graphs.append(random_connected_graph(rng, n, extra_edges=rng.randint(0, 2 * n)))
    seen = {"no triangle": 0, "triangles": 0}
    for g in graphs:
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(g.n))
        for v in range(g.n):
            d = g.degree(v)
            triangles = nx.triangles(nxg, v)
            assert g.clustering_coefficient(v) * (d * (d - 1) // 2) == triangles
            seen["triangles" if triangles else "no triangle"] += 1
    assert min(seen.values()) >= 100


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
            nb = open_neighborhood(g, v)
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


def test_maximal_cliques_equal_the_subset_oracle():
    # Completeness, not just the antichain: a triangle whose edges all lie in
    # other cliques must still be found.
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(0, 10)
        g = random_graph(rng, n, p=rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        assert maximal_cliques(g) == oracle_maximal_cliques(g)
    hidden = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)])
    assert (0, 1, 2) in maximal_cliques(hidden)
    assert maximal_cliques(hidden) == oracle_maximal_cliques(hidden)


@pytest.mark.parametrize(
    "graph",
    [
        erdos_renyi_graph(40, 60, seed=1),
        erdos_renyi_graph(60, 300, seed=2),
        erdos_renyi_graph(60, 900, seed=3),
        erdos_renyi_graph(30, 300, seed=4),
        barabasi_albert_graph(60, 3, seed=5),
        planar_grid_graph(8, 7, 0.6, seed=6),
        Graph(7, []),
    ],
    ids=["er-sparse", "er-mid", "er-half", "er-dense", "ba-hubs", "grid-diagonals", "edgeless"],
)
def test_maximal_cliques_match_networkx(graph):
    nxg = nx.Graph(list(graph.edges))
    nxg.add_nodes_from(range(graph.n))
    assert maximal_cliques(graph) == sorted(tuple(sorted(c)) for c in nx.find_cliques(nxg))


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


def test_labeled_edge_list_refuses_isolated_vertices():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    # The leaves keep their labels 1..3 and have no edge among them.
    with pytest.raises(PreconditionError, match="isolated vertex 1"):
        format_edge_list(open_neighborhood(star, 0))
    # Without isolated vertices a labeled graph round-trips as label pairs.
    path = star.induced_subgraph([0, 2, 3])
    assert format_edge_list(path) == "0 2\n0 3\n"
    assert parse_edge_list(format_edge_list(path)).labels == path.labels


def test_labeled_edge_list_round_trips_its_labels():
    graph = Graph.from_edge_list([("a", -3), (-3, "Zoë")])
    text = format_edge_list(graph)
    assert text == "-3 a\n-3 Zoë\n"
    back = parse_edge_list(text)
    assert back.labels == graph.labels
    assert [type(label) for label in back.labels] == [int, str, str]
    assert back.edges == graph.edges


@pytest.mark.parametrize("label", ["a b", "x#y", "", "1", 1.5, True, "n=2"])
def test_labeled_edge_list_refuses_a_label_it_cannot_read_back(label):
    # Each would be split, cut at the comment, dropped, read as another
    # value or type, or taken for the vertex-count header.
    graph = Graph.from_edge_list([(label, "z")])
    with pytest.raises(PreconditionError, match=f"label {re.escape(repr(label))} would not read back"):
        format_edge_list(graph)


def test_labeled_edge_list_refuses_a_graph_it_would_renumber():
    # parse_edge_list interns the labels of one line in sorted order, so
    # "c a" reads back as ("a", "c"): vertex 0 would become "a".
    graph = Graph.from_edge_list([("b", "c"), ("a", "c")]).induced_subgraph([1, 2])
    assert graph.labels == ("c", "a")
    with pytest.raises(PreconditionError, match="another order"):
        format_edge_list(graph)


def round_trips(graph: Graph) -> bool:
    back = parse_edge_list(format_edge_list(graph))
    return (back.n, back.labels, back.edges) == (graph.n, graph.labels, graph.edges)


def test_every_parsed_edge_list_round_trips():
    # c and d are first read together and c has no smaller neighbour, so
    # "c d" must be written before "a d", which sorted edges would not do.
    graph = parse_edge_list("a b\nc d\na d\n")
    assert format_edge_list(graph) == "a b\nc d\na d\n"
    assert round_trips(karate_graph())
    rng = random.Random(33)
    for _ in range(300):
        pool = [f"v{i}" for i in range(6)] + list(range(-2, 6))
        lines = [" ".join(map(str, rng.sample(pool, 2))) for _ in range(rng.randint(1, 14))]
        assert round_trips(parse_edge_list("\n".join(lines))), lines


def test_labeled_induced_subgraphs_of_karate_round_trip_or_raise():
    rng = random.Random(34)
    karate = karate_graph()
    outcomes = {"round trip": 0, "refused": 0}
    for _ in range(400):
        if rng.random() < 0.5:
            vertices = rng.sample(range(karate.n), rng.randint(2, 12))
        else:
            v = rng.randrange(karate.n)
            vertices = [v, *karate.adjacency[v]]
        subgraph = karate.induced_subgraph(vertices)
        try:
            ok = round_trips(subgraph)
        except PreconditionError:
            outcomes["refused"] += 1
            continue
        assert ok, vertices
        outcomes["round trip"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_bool_vertex_ids_refused_when_count_declared():
    # True is an int to isinstance, but the edge list could not be read back;
    # (0, False) is no loop, though 0 == False.
    for pair in [(True, 0), (0, False), (0.0, 1)]:
        with pytest.raises(MalformedInputError, match="must be integers"):
            Graph.from_edge_list([pair], n=2)
        with pytest.raises(MalformedInputError, match="must be integers"):
            Graph(2, [pair])


@pytest.mark.parametrize("bad", [True, 1.5], ids=["bool", "float"])
@pytest.mark.parametrize(
    "query",
    [
        lambda g, v: g.degree(v),
        lambda g, v: g.neighbors(v),
        lambda g, v: g.has_edge(0, v),
        lambda g, v: g.induced_subgraph([0, v]),
    ],
    ids=["degree", "neighbors", "has_edge", "induced_subgraph"],
)
def test_queries_refuse_non_int_vertex_ids(query, bad):
    g = Graph(3, [(0, 1)])
    with pytest.raises(UnknownVertexError):
        query(g, bad)


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


@pytest.mark.parametrize("n", [-1, True, 2.0], ids=["negative", "bool", "float"])
def test_graph_refuses_a_vertex_count_that_is_not_a_non_negative_int(n):
    with pytest.raises(MalformedInputError, match="vertex count"):
        Graph(n, [])


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5], ids=["triple", "single", "int"])
def test_graph_refuses_an_edge_that_is_not_a_pair(edge):
    with pytest.raises(MalformedInputError, match="not a pair"):
        Graph(3, [edge])
    with pytest.raises(MalformedInputError, match="not a pair"):
        Graph.from_edge_list([edge], n=3)


def test_edge_list_refuses_an_edge_that_is_not_iterable():
    # Without a vertex count the labels are interned first.
    for pairs in ([5], [(0, 1), None]):
        with pytest.raises(MalformedInputError, match="not a group"):
            Graph.from_edge_list(pairs)


def test_edge_list_refuses_equal_labels_of_different_types():
    # True == 1, but vertex 1 must not silently become vertex True.
    with pytest.raises(MalformedInputError, match="True and 1"):
        Graph.from_edge_list([(True, 2), (1, 3)])


@pytest.mark.parametrize("count", ["1_0", "+2", "\u0663", " 3", "", "2.0"])
def test_edge_list_count_is_ascii_digits_only(count):
    # int() reads every one of these; only an optional minus and ASCII digits count.
    with pytest.raises(MalformedInputError, match="bad vertex count"):
        parse_edge_list(f"n={count}\n0 1\n")


def test_edge_list_labels_are_integers_only_as_ascii_digits():
    # The Arabic-Indic digit three is a string label, not the vertex 3.
    g = parse_edge_list("\u0663 3\n")
    assert g.n == 2 and g.labels == (3, "\u0663") and g.edges == ((0, 1),)
    assert [parse_label(t) for t in ("-7", "007", "-0")] == [-7, 7, 0]
    assert [parse_label(t) for t in ("+2", "1_0", "\u0663", "--5", "-", "")] == ["+2", "1_0", "\u0663", "--5", "-", ""]
    assert parse_edge_list("n=3\n0 1\n").n == 3


def test_edge_list_malformed():
    with pytest.raises(MalformedInputError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(MalformedInputError):
        parse_edge_list("n=x\n0 1\n")
    with pytest.raises(MalformedInputError):
        parse_edge_list("3 3\n")
