import dataclasses
import math
import random

import pytest

from localhomology import (
    DisconnectedGraphError,
    Graph,
    PreconditionError,
    barabasi_albert_graph,
    correlation_table,
    edge_aggregate,
    erdos_renyi_graph,
    karate_graph,
    pearson,
    planar_grid_graph,
)

from util import oracle_erdos_renyi_graph


# -- pearson -------------------------------------------------------------------


def test_pearson_self_is_one():
    assert pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0)


def test_pearson_negative_affine():
    x = [0.0, 1.0, 3.0, 7.0]
    y = [-2.0 * v + 7.0 for v in x]
    assert pearson(x, y) == pytest.approx(-1.0)


def test_pearson_hand_computed_value():
    # Independent evaluation of the formula: sample covariance 3/2, standard
    # deviations 1 and sqrt(7/3).
    expected = 1.5 / math.sqrt(7.0 / 3.0)
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pearson_rejects_non_finite_values(bad):
    # numpy would return nan with a RuntimeWarning instead.
    for x, y in (([1.0, bad, 2.0], [1, 2, 3]), ([1, 2, 3], [1.0, bad, 2.0])):
        with pytest.raises(PreconditionError, match="finite"):
            pearson(x, y)


def test_pearson_rejects_bad_lengths():
    with pytest.raises(PreconditionError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(PreconditionError):
        pearson([1], [2])


def test_pearson_zero_variance_is_undefined():
    assert pearson([1, 1, 1], [1, 2, 3]) is None


@pytest.mark.parametrize("constant", [[0.1] * 3, [0.05] * 81, [1 / 3] * 10])
def test_pearson_constant_float_column_is_undefined(constant):
    # The mean of these columns rounds, so their centred values are tiny
    # but nonzero; the coefficient must still be None, not 0.0.
    other = list(range(len(constant)))
    assert pearson(constant, other) is None
    assert pearson(other, constant) is None


def test_pearson_tiny_nonzero_spread_is_a_number():
    # One and two ulps above 1.0: a real, if tiny, spread.
    assert pearson([1.0, 1.0 + 2**-52, 1.0 + 2**-51], [0, 1, 2]) == pytest.approx(1.0)
    assert pearson([0.1, 0.1, 0.1 + 2**-55], [0.0, 1.0, 2.0]) is not None


def test_pearson_positive_affine_invariance():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(3, 12)
        x = [rng.uniform(-5, 5) for _ in range(n)]
        y = [rng.uniform(-5, 5) for _ in range(n)]
        base = pearson(x, y)
        if base is None:
            continue
        a, b = rng.uniform(0.1, 9.0), rng.uniform(-4, 4)
        assert abs(pearson([a * v + b for v in x], y) - base) <= 1e-12


# -- aggregation ---------------------------------------------------------------


def test_edge_aggregate_constant():
    g = Graph.from_edge_list([(0, 1), (1, 2)])
    from localhomology.invariants import VertexScores

    const = VertexScores("const", (3.0, 3.0, 3.0))
    assert set(edge_aggregate(const, g).values.values()) == {3.0}


def test_edge_aggregate_path():
    g = Graph.from_edge_list([(0, 1), (1, 2)])
    from localhomology.invariants import VertexScores

    scores = VertexScores("bump", (0.0, 1.0, 0.0))
    values = edge_aggregate(scores, g).values
    assert values[(0, 1)] == values[(1, 2)] == 0.5


# -- generators ----------------------------------------------------------------


def test_erdos_renyi_exact_edge_count_and_determinism():
    a = erdos_renyi_graph(40, 146, seed=5)
    b = erdos_renyi_graph(40, 146, seed=5)
    assert a.edge_count == 146
    assert a.edges == b.edges
    assert a.is_connected()


def test_erdos_renyi_equals_the_all_pairs_sampler():
    # Decoding sampled pair indices must pick exactly the pairs that sampling
    # the list of all pairs picks, attempt by attempt.
    retried = 0
    for n, edges, seed in [(0, 0, 0), (2, 1, 0), (100, 600, 1), (120, 600, 7), (60, 1000, 2), (30, 60, 5), (20, 25, 3)]:
        expected, attempts = oracle_erdos_renyi_graph(n, edges, seed)
        got = erdos_renyi_graph(n, edges, seed)
        assert (got.n, got.edges) == (expected.n, expected.edges)
        retried += attempts > 0
    assert retried >= 2  # (30, 60, 5) and (20, 25, 3) need connectivity retries


def test_erdos_renyi_infeasible_rejected():
    with pytest.raises(PreconditionError):
        erdos_renyi_graph(4, 7, seed=0)


def test_barabasi_albert_edge_count():
    g = barabasi_albert_graph(40, 4, seed=9)
    assert g.n == 40
    assert g.edge_count == 4 * 36
    assert g.is_connected()
    assert g.edges == barabasi_albert_graph(40, 4, seed=9).edges


def test_planar_grid_shape():
    g = planar_grid_graph(5, 5, 0.5, seed=2)
    assert g.n == 25
    base_edges = 2 * 5 * 4
    assert base_edges <= g.edge_count <= base_edges + 16
    assert g.is_connected()


@pytest.mark.parametrize(
    "call",
    [
        lambda: erdos_renyi_graph(5, True, 1),
        lambda: erdos_renyi_graph(5.0, 3, 1),
        lambda: barabasi_albert_graph(5, True, 1),
        lambda: barabasi_albert_graph(5.0, 2, 1),
        lambda: planar_grid_graph(3.0, 3, 0.5, 1),
        lambda: planar_grid_graph(3, True, 0.5, 1),
    ],
    ids=["er_edges_bool", "er_n_float", "ba_attach_bool", "ba_n_float", "grid_float", "grid_bool"],
)
def test_generator_count_that_is_not_an_int_refused(call):
    # A bool count once read as 1 and a float one raised a bare TypeError from range.
    with pytest.raises(PreconditionError, match="must be .*ints"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: erdos_renyi_graph(5, 4, "x"),
        lambda: erdos_renyi_graph(5, 4, 1.5),
        lambda: erdos_renyi_graph(5, 4, True),
        lambda: barabasi_albert_graph(5, 2, None),
        lambda: barabasi_albert_graph(5, 2, 1.5),
        lambda: planar_grid_graph(3, 3, 0.5, "1"),
        lambda: planar_grid_graph(3, 3, "0.5", 1),
        lambda: planar_grid_graph(3, 3, True, 1),
    ],
    ids=["er_seed_str", "er_seed_float", "er_seed_bool", "ba_seed_none", "ba_seed_float", "grid_seed_str", "grid_prob_str", "grid_prob_bool"],
)
def test_generator_seed_or_probability_of_the_wrong_type_refused(call):
    # A str seed or probability once raised a bare TypeError, and a float,
    # bool or None seed built a graph.
    with pytest.raises(PreconditionError, match="must be an? "):
        call()


# -- correlation tables ----------------------------------------------------------


def test_table_requires_connected_graph():
    with pytest.raises(DisconnectedGraphError):
        correlation_table(Graph.from_edge_list([(0, 1), (2, 3)]))


@pytest.mark.parametrize(
    "bounds",
    [{"k_max": 0}, {"k_max": -1}, {"m_max": -1}, {"k_max": True}, {"k_max": 1.5}, {"m_max": True}],
    ids=["k0", "k-1", "m-1", "k-bool", "k-half", "m-bool"],
)
def test_table_refuses_bad_degree_or_level_before_any_work(bounds, monkeypatch):
    # Refused before the connectivity check and before the flag complex is built.
    import localhomology.stats as stats_module

    def no_work(graph):
        raise AssertionError("flag complex built for a refused call")

    monkeypatch.setattr(stats_module, "flag_complex", no_work)
    for graph in (karate_graph(), Graph.from_edge_list([(0, 1), (2, 3)])):
        with pytest.raises(ValueError, match="degree must be at least 1|level must be non-negative"):
            correlation_table(graph, **bounds)


@pytest.mark.parametrize("n", [0, 1])
def test_table_refuses_fewer_than_two_vertices_before_any_work(n, monkeypatch):
    import localhomology.stats as stats_module

    def no_work(graph):
        raise AssertionError("flag complex built for a refused call")

    monkeypatch.setattr(stats_module, "flag_complex", no_work)
    for subject in ("vertex", "edge"):
        with pytest.raises(PreconditionError, match="^correlation table needs at least two vertices"):
            correlation_table(Graph(n, []), subject=subject)


def test_zero_variance_cells_are_undefined_not_zero():
    # Every vertex of a complete graph has the same local picture, so the
    # Betti columns are constant and the cells must be undefined.
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    report = correlation_table(k4, m_max=0, k_max=1)
    assert all(report.cell(name, 1, 0) is None for name in report.invariants)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[1].endswith(",")


def test_report_csv_layout():
    g = Graph.from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])
    report = correlation_table(g, m_max=1, k_max=1)
    lines = report.to_csv().splitlines()
    assert lines[0] == "invariant,beta_k,N_m,subject,rho"
    assert len(lines) == 1 + len(report.invariants) * 1 * 2
    assert all(line.split(",")[3] == "vertex" for line in lines[1:])


def test_vertex_table_on_karate_beta1_level0():
    report = correlation_table(karate_graph(), subject="vertex", m_max=0, k_max=1)
    assert report.cell("degree_centrality", 1, 0) == pytest.approx(0.700, abs=0.01)
    assert report.cell("clustering_coefficient", 1, 0) == pytest.approx(-0.656, abs=0.01)


def test_edge_table_has_direct_betweenness_row():
    g = Graph.from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    report = correlation_table(g, subject="edge", m_max=0, k_max=1)
    assert "betweenness_edge" in report.invariants
    columns = report.betti_columns[(1, 0)]
    assert len(columns) == g.edge_count


def test_edge_table_on_karate_level0_degree_row():
    # Aggregated degree scores against the edge-level circle count; the
    # level-0 correlation is essentially zero on this network.
    report = correlation_table(karate_graph(), subject="edge", m_max=0, k_max=1)
    assert report.cell("degree_centrality", 1, 0) == pytest.approx(-0.026, abs=0.01)


def test_table_notes_record_level_column_comparison():
    report = correlation_table(karate_graph(), subject="vertex", m_max=1, k_max=1)
    assert any("levels 0 and 1" in note for note in report.notes)
    # The notes and the row names are read from the columns the report
    # holds, so a report narrowed by dataclasses.replace describes only those.
    report = correlation_table(karate_graph(), m_max=2, k_max=2)
    assert [note.split()[0] for note in report.notes] == ["beta_1", "beta_2"]
    assert dataclasses.replace(report, degrees=(2,)).notes == report.notes[1:]
    for levels in [(0,), (1, 2), (0, 2), (2,)]:
        assert dataclasses.replace(report, levels=levels).notes == ()
    assert dataclasses.replace(report, levels=(1, 0)).notes == report.notes
    assert correlation_table(karate_graph(), m_max=0, k_max=2).notes == ()
    assert report.invariants == tuple(report.invariant_values)


def test_scatter_csv():
    g = Graph.from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])
    report = correlation_table(g, m_max=0, k_max=1)
    text = report.scatter_csv("degree_centrality", 1, 0)
    lines = text.splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 1 + g.n


def test_correlation_table_identical_across_runs():
    g = karate_graph()
    first = correlation_table(g, m_max=1, k_max=2)
    second = correlation_table(g, m_max=1, k_max=2)
    assert first.cells == second.cells
