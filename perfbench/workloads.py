"""The four benchmark workloads: inputs from a seed, the timed pipeline, checks.

Each workload puts a different module of `localhomology` on the critical
path, so that a change to one module moves one workload and leaves the
others flat:

- er_profile: Betti profiles at 30 vertices up to neighborhood level 2 on a
  sparse random graph. Level-2 neighborhoods are large, so exact rank in
  `linalg` does most of the work.
- er_strata: the level-0 profile of every face of a random graph's flag
  complex (the path of the CLI `strat` and `local` commands). The open sets
  are stars with tiny chain complexes, so the O(|X|) closure and frontier of
  `complexes` dominate and rank barely shows.
- grid_corr: the paper's correlation study on a planar grid, where the
  `invariants` (random-walk and shortest-path betweenness) dominate.
- er_persist: Betti numbers and restriction-map ranks along neighborhood
  filtrations at 30 vertices, which run the kernel, incremental-rank and
  solve side of `linalg` rather than plain rank.

A run of seed s generates its graphs with library seeds s + STRIDE * i, and
its passes cycle through them; one pass is one graph's whole pipeline. A
pass makes its library calls through a `call` hook, so the worker can time
each one: the calls are kept to tens of milliseconds each (one seed
simplex, or a chunk of faces, per `profile_many` call), because the speed
of a shared host changes within a second.

Outputs are reduced to plain lists, dicts, ints, floats and strings, so
they compare with `==` and store as JSON.
"""

from __future__ import annotations

import math
import random
import traceback

from localhomology import analysis, graphs, homology, stats

STRIDE = 100_003
STRATA_CHUNK = 32  # faces per profile_many call in er_strata

# Floats are compared within what float rounding can change, so an exact
# algorithm that only reorders the arithmetic still passes.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def graph_seed(seed: int, index: int) -> int:
    return seed + STRIDE * index


def _profiles(profiles) -> list:
    return [
        [list(p.simplex), [list(levels) for levels in p.betti_by_level], p.classification]
        for p in profiles
    ]


def _check_cliques(graph, complex) -> tuple[int, int]:
    import networkx as nx

    expected = {tuple(sorted(c)) for c in nx.find_cliques(nx.Graph(list(graph.edges)))}
    return 1, int(set(complex.maximal) != expected)


def _float_rank(matrix) -> int:
    import numpy as np

    if not matrix.entries:
        return 0
    dense = np.zeros((matrix.rows, matrix.cols))
    for (i, j), value in matrix.entries.items():
        dense[i, j] = float(value)
    return int(np.linalg.matrix_rank(dense))


def _direct_betti(complex, seed_simplex, m: int) -> list[int]:
    """Local Betti numbers at the seed's level-m neighborhood, by two oracles.

    `local_betti_direct` works on the pair (X, X minus U) without excision;
    the same chain complex ranked in floating point by numpy is independent
    of the exact rank kernel as well. A disagreement raises.
    """
    level = analysis.neighborhood_filtration(complex, [seed_simplex], m).levels[m]
    direct = list(homology.local_betti_direct(complex, level))
    chains = homology.relative_chain_complex(complex, level.complement())
    ranks = [_float_rank(b) for b in chains.boundaries] + [0]
    floating = [len(chains.bases[k]) - ranks[k] - ranks[k + 1] for k in range(len(chains.bases))]
    if floating != direct:
        raise AssertionError(f"oracles disagree at {seed_simplex}, level {m}")
    return direct


def direct(fn, *args, **kwargs):
    """The `call` hook of an untimed pass."""
    return fn(*args, **kwargs)


def _passes(check) -> bool:
    """Run one output item's check; an exception fails the item and is shown."""
    try:
        return bool(check())
    except Exception:
        traceback.print_exc()
        return False


class Workload:
    name = ""
    sample = 0  # output items per graph checked against the oracles

    def graph(self, library_seed: int):
        raise NotImplementedError

    def run(self, graph, call=direct):
        """The timed pipeline: generated graph in, canonical output out.

        Every library call of the pipeline goes through `call(fn, *args)`.
        """
        raise NotImplementedError

    def items(self, output) -> int:
        return len(output)

    def check(self, graph, output, rng: random.Random) -> tuple[int, int]:
        """Checks a seeded sample of the output against independent oracles.

        Returns (items checked, items that mismatched or raised).
        """
        raise NotImplementedError


class ErProfile(Workload):
    name = "er_profile"
    sample = 4

    def graph(self, library_seed):
        return stats.erdos_renyi_graph(120, 600, library_seed)

    def run(self, graph, call=direct):
        complex = call(graphs.flag_complex, graph)
        return _profiles(
            profile for v in range(30) for profile in call(analysis.profile_many, complex, [(v,)], m_max=2)
        )

    def check(self, graph, output, rng):
        complex = graphs.flag_complex(graph)
        attempted, failed = _check_cliques(graph, complex)
        for simplex, levels, _ in rng.sample(output, self.sample):
            attempted += 1
            failed += not _passes(
                lambda: all(_direct_betti(complex, tuple(simplex), m) == levels[m] for m in range(3))
            )
        return attempted, failed


class ErStrata(Workload):
    name = "er_strata"
    sample = 60

    def graph(self, library_seed):
        return stats.erdos_renyi_graph(100, 600, library_seed)

    def run(self, graph, call=direct):
        complex = call(graphs.flag_complex, graph)
        faces = call(lambda: sorted(complex.all_faces()))
        return _profiles(
            profile
            for i in range(0, len(faces), STRATA_CHUNK)
            for profile in call(analysis.profile_many, complex, faces[i : i + STRATA_CHUNK], m_max=0)
        )

    def check(self, graph, output, rng):
        complex = graphs.flag_complex(graph)
        attempted, failed = _check_cliques(graph, complex)
        attempted += 1
        failed += [tuple(s) for s, _, _ in output] != sorted(complex.all_faces())
        for simplex, levels, _ in rng.sample(output, self.sample):
            attempted += 1
            failed += not _passes(lambda: _direct_betti(complex, tuple(simplex), 0) == levels[0])
        return attempted, failed


class GridCorr(Workload):
    name = "grid_corr"
    sample = 8

    def graph(self, library_seed):
        return stats.planar_grid_graph(9, 9, 0.5, library_seed)

    def run(self, graph, call=direct):
        report = call(stats.correlation_table, graph, subject="vertex", m_max=2, k_max=2)
        return {
            "rho": {f"{n}|{k}|{m}": v for (n, k, m), v in sorted(report.cells.items())},
            "betti": {f"{k}|{m}": list(col) for (k, m), col in sorted(report.betti_columns.items())},
            "invariants": {n: list(v) for n, v in report.invariant_values.items()},
        }

    def items(self, output):
        return sum(len(part) for part in output.values())

    def check(self, graph, output, rng):
        import networkx as nx
        import numpy as np

        n = graph.n
        nxg = nx.Graph(list(graph.edges))
        nxg.add_nodes_from(range(n))
        cliques = [0.0] * n
        for clique in nx.find_cliques(nxg):
            for v in clique:
                cliques[v] += 1.0
        # The library averages current-flow throughput over all unordered
        # pairs, endpoints counting one; networkx excludes endpoints and
        # normalizes by (n-1)(n-2)/2.
        flow = nx.current_flow_betweenness_centrality(nxg)
        pairs = n * (n - 1) / 2
        expected = {
            "degree_centrality": nx.degree_centrality(nxg),
            "closeness_centrality": nx.closeness_centrality(nxg),
            "betweenness_vertex": nx.betweenness_centrality(nxg, normalized=False),
            "random_walk_betweenness": {
                v: (flow[v] * (n - 1) * (n - 2) / 2 + (n - 1)) / pairs for v in range(n)
            },
            "maximal_cliques": dict(enumerate(cliques)),
            "clustering_coefficient": nx.clustering(nxg),
        }
        attempted = failed = 0
        values = output["invariants"]
        for name, oracle in expected.items():
            attempted += 1
            failed += name not in values or not all(
                math.isclose(values[name][v], oracle[v], rel_tol=1e-7, abs_tol=1e-9)
                for v in range(n)
            )
        for key, rho in output["rho"].items():
            name, k, m = key.split("|")
            x = np.asarray(values[name], dtype=float)
            y = np.asarray(output["betti"][f"{k}|{m}"], dtype=float)
            attempted += 1
            if x.std() == 0 or y.std() == 0:
                failed += rho is not None
            else:
                failed += rho is None or not math.isclose(
                    rho, float(np.corrcoef(x, y)[0, 1]), rel_tol=1e-7, abs_tol=1e-9
                )
        complex = graphs.flag_complex(graph)

        def column_entries_match(v):
            for m in range(3):
                betti = _direct_betti(complex, (v,), m) + [0, 0, 0]
                if any(output["betti"][f"{k}|{m}"][v] != betti[k] for k in (1, 2)):
                    return False
            return True

        for v in rng.sample(range(n), self.sample):
            attempted += 1
            failed += not _passes(lambda: column_entries_match(v))
        return attempted, failed


class ErPersist(Workload):
    name = "er_persist"
    sample = 6
    m_max = 1

    def graph(self, library_seed):
        return stats.erdos_renyi_graph(100, 500, library_seed)

    def run(self, graph, call=direct):
        complex = call(graphs.flag_complex, graph)
        return [
            [v, [list(entry) for entry in call(analysis.filtration_persistence, complex, (v,), 1, self.m_max)]]
            for v in range(30)
        ]

    def check(self, graph, output, rng):
        complex = graphs.flag_complex(graph)
        attempted, failed = _check_cliques(graph, complex)

        def entries_match(v, entries):
            if len(entries) != self.m_max + 1 or entries[-1][1] is not None:
                return False
            for m, (b, r) in enumerate(entries):
                if b != (_direct_betti(complex, (v,), m) + [0, 0])[1]:
                    return False
                # The map runs from level m+1 into level m.
                if r is not None and not 0 <= r <= min(b, entries[m + 1][0]):
                    return False
            return True

        for v, entries in rng.sample(output, self.sample):
            attempted += 1
            failed += not _passes(lambda: entries_match(v, entries))
        return attempted, failed


WORKLOADS = {w.name: w for w in (ErProfile(), ErStrata(), GridCorr(), ErPersist())}


def same(got, want) -> bool:
    """Structural equality, exact for ints and within rounding for floats."""
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want
