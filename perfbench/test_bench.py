"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The counters of one traced pass per workload on the default seed's first
graph are pinned exactly: counts repeat where times do not, so a later
count-based claim can rest on them. A change that moves a pinned count on
purpose updates it here and says why.
"""

from __future__ import annotations

import pytest

from worker import DEFAULT_SEED, load_library

load_library()

from tracing import Tracer, installed_wrappers  # noqa: E402
from workloads import WORKLOADS, graph_seed, same  # noqa: E402

PINNED = {
    "er_persist": {
        "linalg.rank.calls": 270,
        "linalg.solve_in_image.calls": 1453,
        "linalg.kernel_basis.calls": 240,
        "linalg.IncrementalRank.add.calls": 8928,
        "homology.induced_map_rank.calls": 30,
        "complexes.star.calls": 270,
        "complexes.closure.calls": 510,
        "complexes.frontier.calls": 150,
        "homology.local_betti.calls": 60,
        "stats.pearson.calls": 0,
        "linalg.rank.nnz": 8487,
        "linalg.rank.cells": 245312,
        "linalg.rank.full_frac": 0.8777777777777778,
        "linalg.rank.empty_frac": 0.362962962962963,
        "linalg.IncrementalRank.add.accept_frac": 0.4080421146953405,
        "complexes.closure.out_faces": 149629,
        "homology.local_betti.repeat_frac": 0.0,
        "homology.chain_cells": 5643,
        "graphs.cliques": 350,
        "items": 30
    },
    "er_profile": {
        "linalg.rank.calls": 360,
        "linalg.solve_in_image.calls": 0,
        "linalg.kernel_basis.calls": 0,
        "linalg.IncrementalRank.add.calls": 0,
        "homology.induced_map_rank.calls": 0,
        "complexes.star.calls": 180,
        "complexes.closure.calls": 330,
        "complexes.frontier.calls": 90,
        "homology.local_betti.calls": 90,
        "stats.pearson.calls": 0,
        "linalg.rank.nnz": 44491,
        "linalg.rank.cells": 3797444,
        "linalg.rank.full_frac": 0.8222222222222222,
        "linalg.rank.empty_frac": 0.3416666666666667,
        "linalg.IncrementalRank.add.accept_frac": 0.0,
        "complexes.closure.out_faces": 128840,
        "homology.local_betti.repeat_frac": 0.0,
        "homology.chain_cells": 27659,
        "graphs.cliques": 413,
        "items": 30
    },
    "er_strata": {
        "linalg.rank.calls": 3988,
        "linalg.solve_in_image.calls": 0,
        "linalg.kernel_basis.calls": 0,
        "linalg.IncrementalRank.add.calls": 0,
        "homology.induced_map_rank.calls": 0,
        "complexes.star.calls": 1994,
        "complexes.closure.calls": 2991,
        "complexes.frontier.calls": 997,
        "homology.local_betti.calls": 997,
        "stats.pearson.calls": 0,
        "linalg.rank.nnz": 4006,
        "linalg.rank.cells": 15244,
        "linalg.rank.full_frac": 0.9897191574724172,
        "linalg.rank.empty_frac": 0.8131895687061184,
        "linalg.IncrementalRank.add.accept_frac": 0.0,
        "complexes.closure.out_faces": 1014180,
        "homology.local_betti.repeat_frac": 0.0,
        "homology.chain_cells": 4035,
        "graphs.cliques": 411,
        "items": 997
    },
    "grid_corr": {
        "linalg.rank.calls": 729,
        "linalg.solve_in_image.calls": 0,
        "linalg.kernel_basis.calls": 0,
        "linalg.IncrementalRank.add.calls": 0,
        "homology.induced_map_rank.calls": 0,
        "complexes.star.calls": 486,
        "complexes.closure.calls": 891,
        "complexes.frontier.calls": 243,
        "homology.local_betti.calls": 243,
        "stats.pearson.calls": 36,
        "linalg.rank.nnz": 11374,
        "linalg.rank.cells": 104223,
        "linalg.rank.full_frac": 1.0,
        "linalg.rank.empty_frac": 0.3511659807956104,
        "linalg.IncrementalRank.add.accept_frac": 0.0,
        "complexes.closure.out_faces": 92002,
        "homology.local_betti.repeat_frac": 0.0,
        "homology.chain_cells": 7998,
        "graphs.cliques": 106,
        "items": 48
    }
}


def traced_pass(name):
    workload = WORKLOADS[name]
    graph = workload.graph(graph_seed(DEFAULT_SEED, 0))
    plain = workload.run(graph)
    tracer = Tracer()
    tracer.install()
    try:
        assert installed_wrappers()
        traced = workload.run(graph)
    finally:
        tracer.uninstall()
    return workload, plain, traced, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_is_pass_through_and_counts_are_pinned(name):
    workload, plain, traced, tracer = traced_pass(name)
    assert traced == plain
    assert installed_wrappers() == []
    counts = {k: v for k, v in tracer.metrics().items() if not k.endswith(("_s", "_ms"))}
    counts["items"] = workload.items(plain)
    assert counts == PINNED[name]


def test_repeat_frac_counts_open_sets_seen_again_for_the_same_seed():
    from localhomology import SimplicialComplex, analysis

    # In one triangle every level past 0 is the whole complex, so of the
    # three local_betti calls at vertex 0 the level-2 call repeats level 1.
    triangle = SimplicialComplex.from_maximal([[0, 1, 2]])
    tracer = Tracer()
    tracer.install()
    try:
        analysis.profile_many(triangle, [(0,), (1,)], m_max=2)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["homology.local_betti.calls"] == 6
    assert metrics["homology.local_betti.repeat_frac"] == 2 / 6


def test_same_is_exact_for_ints_and_tolerates_float_rounding():
    assert same([1, [2, 3], {"a": 0.1 + 0.2}], [1, [2, 3], {"a": 0.3}])
    assert not same([1, [2, 4]], [1, [2, 3]])
    assert not same([1.0], [1])
    assert not same({"a": 0.30001}, {"a": 0.3})
    assert same([None], [None]) and not same([None], [0.0])


def test_pass_s_sums_each_calls_median_corrected_time():
    from hostspeed import REFERENCE_S
    from worker import pass_s

    # Three passes of two calls; in the second pass the host ran twice as
    # slow (the calibration loop took twice the reference time).
    slow = 2 * REFERENCE_S
    passes = [
        [(1.0, REFERENCE_S), (0.5, REFERENCE_S)],
        [(2.0, slow), (1.0, slow)],
        [(1.2, REFERENCE_S), (0.4, REFERENCE_S)],
    ]
    assert pass_s(passes) == pytest.approx(1.0 + 0.5)
    with pytest.raises(ValueError):
        pass_s([[(1.0, REFERENCE_S)], [(1.0, REFERENCE_S), (1.0, REFERENCE_S)]])
