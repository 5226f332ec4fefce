import math
import random
from math import lcm

import networkx as nx
import pytest

from localhomology import (
    DisconnectedGraphError,
    Graph,
    PreconditionError,
    barabasi_albert_graph,
    betweenness_edge,
    betweenness_vertex,
    clustering_scores,
    closeness_centrality,
    correlation_table,
    degree_centrality,
    edge_aggregate,
    karate_graph,
    maximal_clique_count,
    pearson,
    planar_grid_graph,
    random_walk_betweenness,
)
from localhomology.stats import VERTEX_INVARIANTS

from util import (
    oracle_betweenness,
    oracle_brandes_edge,
    oracle_brandes_vertex,
    oracle_closeness,
    oracle_current_flow,
    oracle_current_flow_pairs,
    random_connected_graph,
    random_tree,
    shortest_path_dag,
)


@pytest.fixture
def path3():
    return Graph.from_edge_list([(0, 1), (1, 2)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# -- degree ------------------------------------------------------------------


def test_degree_centrality_complete():
    assert degree_centrality(complete_graph(4)).values == (1.0, 1.0, 1.0, 1.0)


def test_degree_centrality_star():
    g = Graph.from_edge_list([(0, i) for i in range(1, 5)])
    scores = degree_centrality(g).values
    assert scores[0] == 1.0
    assert scores[1:] == (0.25, 0.25, 0.25, 0.25)


def test_degree_centrality_path(path3):
    assert degree_centrality(path3).values == (0.5, 1.0, 0.5)


def test_degree_centrality_rejects_tiny():
    with pytest.raises(PreconditionError):
        degree_centrality(Graph(1, []))


# -- closeness ---------------------------------------------------------------


def test_closeness_complete():
    assert closeness_centrality(complete_graph(5)).values == (1.0,) * 5


def test_closeness_path(path3):
    assert closeness_centrality(path3).values == (2 / 3, 1.0, 2 / 3)


def test_closeness_path_five_center():
    g = Graph.from_edge_list([(i, i + 1) for i in range(4)])
    # Distances from the center: 2+1+1+2 = 6.
    assert closeness_centrality(g).values[2] == 4 / 6


def test_closeness_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        closeness_centrality(Graph.from_edge_list([(0, 1), (2, 3)]))


@pytest.mark.parametrize(
    "call, what",
    [
        (closeness_centrality, "closeness centrality"),
        (random_walk_betweenness, "random-walk betweenness"),
        (correlation_table, "correlation table"),
    ],
    ids=["closeness", "random_walk", "correlation_table"],
)
def test_connected_graph_rule(call, what):
    # One rule and one message per case; degree centrality alone takes disconnected graphs.
    with pytest.raises(PreconditionError, match=f"^{what} needs at least two vertices$") as caught:
        call(Graph(1, []))
    assert not isinstance(caught.value, DisconnectedGraphError)
    with pytest.raises(DisconnectedGraphError, match=f"^{what} requires a connected graph$"):
        call(Graph.from_edge_list([(0, 1), (2, 3)]))
    assert degree_centrality(Graph.from_edge_list([(0, 1), (2, 3)])).values == (1 / 3,) * 4


# -- shortest-path betweenness -----------------------------------------------


def test_betweenness_path_midpoint(path3):
    assert betweenness_vertex(path3).values == (0.0, 1.0, 0.0)


def test_betweenness_complete_graph_zero():
    assert betweenness_vertex(complete_graph(5)).values == (0.0,) * 5


def test_betweenness_matches_enumeration_oracle():
    rng = random.Random(3)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(2, 8))
        ours = betweenness_vertex(g).values
        oracle = [float(x) for x in oracle_betweenness(g)]
        assert ours == tuple(oracle)


def test_betweenness_matches_networkx_on_karate():
    g = karate_graph()
    ours = betweenness_vertex(g).values
    nxg = nx.Graph(list(g.edges))
    theirs = nx.betweenness_centrality(nxg, normalized=False)
    assert all(math.isclose(ours[v], theirs[v], rel_tol=1e-9) for v in range(g.n))


def test_edge_betweenness_four_cycle():
    g = Graph.from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3)])
    values = betweenness_edge(g).values
    # By symmetry every edge carries the same load: its own endpoint pair
    # plus half of each of the two opposite-corner pairs.
    assert set(values.values()) == {2.0}


def test_edge_betweenness_path(path3):
    values = betweenness_edge(path3).values
    assert values[(0, 1)] == values[(1, 2)] == 2.0  # 1 direct pair + shared long pair


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(a, b):
    return Graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])


def property_graphs():
    """Seeded connected graphs and disconnected graphs for the fast-path property tests."""
    rng = random.Random(2026)
    connected = [Graph(2, [(0, 1)]), karate_graph()]
    connected += [random_tree(rng, n) for n in (3, 5, 8, 12, 17)]
    connected += [cycle_graph(n) for n in (3, 4, 5, 7, 10)]
    connected += [complete_graph(n) for n in (3, 4, 6, 9)]
    connected += [planar_grid_graph(w, h, 0.0, 1) for w, h in ((4, 4), (3, 6), (5, 5))]
    for seed, (w, h) in enumerate(((4, 4), (6, 5), (7, 3))):
        connected.append(planar_grid_graph(w, h, 0.5, seed))
    for seed, (n, attach) in enumerate(((10, 1), (15, 2), (20, 3), (25, 2), (30, 1))):
        connected.append(barabasi_albert_graph(n, attach, seed))
    connected += [random_connected_graph(rng, rng.randint(4, 14)) for _ in range(10)]
    disconnected = [
        Graph(2, []),
        Graph(5, [(0, 1), (1, 2)]),
        disjoint_union(cycle_graph(5), complete_graph(3)),
        disjoint_union(planar_grid_graph(3, 3, 0.0, 1), random_tree(rng, 6)),
        disjoint_union(random_connected_graph(rng, 7), random_connected_graph(rng, 5)),
    ]
    return connected, disconnected


def test_property_graphs_cover_the_hard_cases():
    connected, disconnected = property_graphs()
    assert len(connected) + len(disconnected) >= 40
    # A source whose lcm of path counts exceeds every count, so P = max(sigma)
    # would truncate P // sigma: from a corner of the 4x4 grid the counts go up
    # to 20 and their lcm is 60.
    grid = planar_grid_graph(4, 4, 0.0, 1)
    assert any(
        lcm(*(sigma[w] for w in order)) > max(sigma)
        for order, sigma, _ in (shortest_path_dag(grid, s) for s in range(grid.n))
    )
    # Pendant vertices carry no current between other pairs: the endpoint term alone.
    assert sum(any(len(g.adjacency[v]) == 1 for v in range(g.n)) for g in connected) >= 10


def test_closeness_equals_bfs_distance_oracle_and_networkx():
    connected, disconnected = property_graphs()
    for g in connected:
        ours = closeness_centrality(g).values
        assert ours == tuple(oracle_closeness(g)), g
        theirs = nx.closeness_centrality(nx.Graph(list(g.edges)))
        assert all(math.isclose(ours[v], theirs[v], rel_tol=1e-12) for v in range(g.n)), g
    for g in disconnected:
        with pytest.raises(DisconnectedGraphError):
            closeness_centrality(g)


@pytest.mark.parametrize("subject", ["vertex", "edge"])
def test_correlation_rows_equal_each_invariant_alone(subject):
    # The table shares one shortest-path pass between its closeness and
    # betweenness rows and counts cliques from its flag complex; every row,
    # the clique row included, must still be exactly what the public
    # function gives by itself.
    connected, _ = property_graphs()
    # A table needs two subjects to correlate, and the one-edge graph has one edge.
    for g in (g for g in connected if subject == "vertex" or g.edge_count >= 2):
        values = correlation_table(g, subject=subject, m_max=0, k_max=1).invariant_values
        alone = [fn(g) for fn in VERTEX_INVARIANTS]
        if subject == "vertex":
            expected = {s.name: s.values for s in alone}
        else:
            rows = [edge_aggregate(s, g) for s in alone] + [betweenness_edge(g)]
            expected = {s.name: tuple(s.values[e] for e in g.edges) for s in rows}
        assert values == expected, g
        assert list(values) == list(expected)


def test_betweenness_equals_rational_brandes_oracle():
    connected, disconnected = property_graphs()
    for g in connected + disconnected:
        assert betweenness_vertex(g).values == tuple(float(x) for x in oracle_brandes_vertex(g))
        edge_oracle = oracle_brandes_edge(g)
        assert betweenness_edge(g).values == {e: float(x) for e, x in edge_oracle.items()}


# -- random-walk betweenness --------------------------------------------------


def test_random_walk_matches_pairwise_current_flow_oracle():
    connected, _ = property_graphs()
    for g in connected:
        ours = random_walk_betweenness(g).values
        oracle = oracle_current_flow_pairs(g)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(ours, oracle)), g



def test_random_walk_path_midpoint_largest(path3):
    scores = random_walk_betweenness(path3).values
    assert scores[1] > scores[0]
    assert scores[1] > scores[2]
    assert scores[1] == pytest.approx(1.0)


def test_random_walk_triangle_symmetric():
    scores = random_walk_betweenness(complete_graph(3)).values
    assert scores[0] == pytest.approx(scores[1])
    assert scores[1] == pytest.approx(scores[2])


def test_random_walk_matches_circuit_oracle():
    rng = random.Random(7)
    chorded = Graph.from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    cases = [chorded] + [random_connected_graph(rng, rng.randint(2, 7)) for _ in range(6)]
    for g in cases:
        ours = random_walk_betweenness(g).values
        oracle = oracle_current_flow(g)
        assert all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) for a, b in zip(ours, oracle))


def test_random_walk_affine_equivalent_to_networkx():
    g = karate_graph()
    ours = random_walk_betweenness(g).values
    nxg = nx.Graph(list(g.edges))
    theirs = nx.current_flow_betweenness_centrality(nxg)
    rho = pearson(ours, [theirs[v] for v in range(g.n)])
    assert rho == pytest.approx(1.0, abs=1e-9)


def test_random_walk_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        random_walk_betweenness(Graph.from_edge_list([(0, 1), (2, 3)]))


# -- clique counts and clustering ---------------------------------------------


def test_maximal_clique_count_triangle():
    assert maximal_clique_count(complete_graph(3)).values == (1.0, 1.0, 1.0)


def test_maximal_clique_count_path(path3):
    assert maximal_clique_count(path3).values == (1.0, 2.0, 1.0)


def test_maximal_clique_count_k4():
    assert maximal_clique_count(complete_graph(4)).values == (1.0,) * 4


def test_clustering_scores_vectorized():
    rng = random.Random(11)
    g = random_connected_graph(rng, 8)
    scores = clustering_scores(g).values
    assert scores == tuple(float(g.clustering_coefficient(v)) for v in range(g.n))


def test_every_invariant_yields_python_floats():
    g = karate_graph()
    for fn in VERTEX_INVARIANTS:
        assert all(type(v) is float for v in fn(g).values), fn.__name__
    assert all(type(v) is float for v in betweenness_edge(g).values.values())


def test_all_scores_non_negative():
    rng = random.Random(13)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(3, 9))
        for fn in (
            degree_centrality,
            closeness_centrality,
            betweenness_vertex,
            random_walk_betweenness,
            maximal_clique_count,
            clustering_scores,
        ):
            assert all(value >= 0 for value in fn(g).values)
        assert all(value >= 0 for value in betweenness_edge(g).values.values())
