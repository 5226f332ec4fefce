"""Pass-through tracing of the localhomology pipeline, installed from outside.

Every wrapper sits on the attribute through which the pipeline looks the
function up at call time (a module global, a class attribute, or an entry
of `stats.VERTEX_INVARIANTS`), never on the defining module alone, so
calls made inside the library are seen without editing it. A wrapper
times its call, charges the duration to the caller's span as child time,
and passes the result through unchanged. `uninstall` puts every original
object back.

Span names use the layer that does the work (`linalg.rank` although the
pipeline reaches `rank` through `homology`).
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

# Spans that scope the `homology.local_betti.repeat_frac` counter: a call
# repeats when its open set was already seen under the same seed simplex.
SEED_SCOPES = ("analysis.local_profile", "analysis.filtration_persistence")

INVARIANTS = (
    "degree_centrality",
    "closeness_centrality",
    "betweenness_vertex",
    "random_walk_betweenness",
    "maximal_clique_count",
    "clustering_scores",
    "betweenness_edge",
)


class Span:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects spans (name, duration, parent) and counters in memory."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.edges: dict[tuple[str, str], Span] = {}
        self.counters: dict[str, int] = {}
        self.profile_durations: list[float] = []  # one per analysis.local_profile call
        self._stack: list[list] = []  # [name, child seconds, seen open sets]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _record(self, name: str, parent: str, duration: float, child: float) -> None:
        for table, key in ((self.spans, name), (self.edges, (parent, name))):
            span = table.get(key)
            if span is None:
                span = table[key] = Span()
            span.calls += 1
            span.total_s += duration
            span.self_s += duration - child
        if name == "analysis.local_profile":
            self.profile_durations.append(duration)

    def wrap(self, name: str, fn, observe=None):
        """Pass-through wrapper of `fn` that records a span named `name`.

        `observe(tracer, result, args)` updates counters after the span
        closes; its cost is charged to neither the span nor its parent.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "<root>"
            frame = [name, 0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._record(name, parent, end - start, frame[1])
            if observe is not None:
                observe(self, result, args)
            if stack:
                stack[-1][1] += perf_counter() - start
            return result

        return traced

    def seed_scope(self) -> set | None:
        """Open sets seen under the innermost per-seed span, if any."""
        for frame in reversed(self._stack):
            if frame[0] in SEED_SCOPES:
                if frame[2] is None:
                    frame[2] = set()
                return frame[2]
        return None

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from localhomology import analysis, complexes, graphs, homology, linalg, stats

        def wrap_global(module, attr, name, observe=None):
            self._patch(module, attr, self.wrap(name, module.__dict__[attr], observe))

        wrap_global(homology, "rank", "linalg.rank", _observe_rank)
        wrap_global(homology, "kernel_basis", "linalg.kernel_basis")
        wrap_global(homology, "solve_in_image", "linalg.solve_in_image")
        wrap_global(analysis, "local_betti", "homology.local_betti", _observe_local_betti)
        wrap_global(analysis, "local_profile", "analysis.local_profile")
        wrap_global(analysis, "induced_map_rank", "homology.induced_map_rank")
        wrap_global(analysis, "neighborhood_filtration", "analysis.neighborhood_filtration")
        # Entry points the benchmark itself looks up on these modules.
        wrap_global(analysis, "profile_many", "analysis.profile_many")
        wrap_global(analysis, "filtration_persistence", "analysis.filtration_persistence")
        wrap_global(graphs, "flag_complex", "graphs.flag_complex")
        wrap_global(stats, "correlation_table", "stats.correlation_table")
        # Names stats.correlation_table looks up in its own module.
        wrap_global(stats, "profile_many", "analysis.profile_many")
        wrap_global(stats, "flag_complex", "graphs.flag_complex")
        wrap_global(stats, "pearson", "stats.pearson")
        wrap_global(stats, "betweenness_edge", "invariants.betweenness_edge")
        wrap_global(graphs, "maximal_cliques", "graphs.maximal_cliques", _observe_cliques)

        cls = complexes.SimplicialComplex
        for attr in ("star", "closure", "frontier"):
            observe = _observe_closure if attr == "closure" else None
            self._patch(cls, attr, self.wrap(f"complexes.{attr}", cls.__dict__[attr], observe))
        from_maximal = cls.__dict__["from_maximal"].__func__
        self._patch(cls, "from_maximal", classmethod(self.wrap("complexes.from_maximal", from_maximal)))

        add = linalg.IncrementalRank.__dict__["add"]
        self._patch(linalg.IncrementalRank, "add", self.wrap("linalg.IncrementalRank.add", add, _observe_add))

        # The tuple captured the invariant functions at import time.
        rebuilt = tuple(self.wrap(f"invariants.{fn.__name__}", fn) for fn in stats.VERTEX_INVARIANTS)
        self._patch(stats, "VERTEX_INVARIANTS", rebuilt)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, named `<module>.<function>.<stat>`."""
        spans, c = self.spans, self.counters

        def span(name):
            return spans.get(name) or Span()

        def frac(num, calls):
            return c.get(num, 0) / calls if calls else 0.0

        out: dict[str, float] = {}
        for name in (
            "linalg.rank",
            "linalg.solve_in_image",
            "linalg.kernel_basis",
            "linalg.IncrementalRank.add",
            "homology.induced_map_rank",
            "complexes.star",
            "complexes.closure",
            "complexes.frontier",
            "homology.local_betti",
            "stats.pearson",
        ):
            out[f"{name}.self_s"] = span(name).self_s
            out[f"{name}.calls"] = span(name).calls
        rank_calls = span("linalg.rank").calls
        out["linalg.rank.nnz"] = c.get("rank.nnz", 0)
        out["linalg.rank.cells"] = c.get("rank.cells", 0)
        out["linalg.rank.full_frac"] = frac("rank.full", rank_calls)
        out["linalg.rank.empty_frac"] = frac("rank.empty", rank_calls)
        out["linalg.IncrementalRank.add.accept_frac"] = frac("add.accepted", span("linalg.IncrementalRank.add").calls)
        out["complexes.closure.out_faces"] = c.get("closure.out_faces", 0)
        out["homology.local_betti.repeat_frac"] = frac("local_betti.repeats", span("homology.local_betti").calls)
        out["homology.chain_cells"] = c.get("local_betti.chain_cells", 0)
        for name in (
            "analysis.profile_many",
            "analysis.neighborhood_filtration",
            "analysis.filtration_persistence",
            "graphs.maximal_cliques",
            "complexes.from_maximal",
            "stats.correlation_table",
        ):
            out[f"{name}.self_s"] = span(name).self_s
        samples = self.profile_durations
        p50 = p90 = 0.0
        if len(samples) >= 2:
            deciles = statistics.quantiles(samples, n=10)
            p50, p90 = deciles[4], deciles[8]
        elif samples:
            p50 = p90 = samples[0]
        out["analysis.local_profile.p50_ms"] = p50 * 1e3
        out["analysis.local_profile.p90_ms"] = p90 * 1e3
        for name in INVARIANTS:
            out[f"invariants.{name}.self_s"] = span(f"invariants.{name}").self_s
        out["graphs.cliques"] = c.get("cliques", 0)
        return out

    def breakdown(self) -> dict:
        """Every span and parent-child edge, for the committed baseline."""

        def row(span):
            return {"calls": span.calls, "total_s": span.total_s, "self_s": span.self_s}

        return {
            "spans": {name: row(s) for name, s in sorted(self.spans.items())},
            "edges": {f"{p} > {n}": row(s) for (p, n), s in sorted(self.edges.items())},
            "counters": dict(sorted(self.counters.items())),
        }


def _observe_rank(tracer, result, args):
    matrix = args[0]
    tracer.count("rank.nnz", matrix.nnz)
    tracer.count("rank.cells", matrix.rows * matrix.cols)
    tracer.count("rank.full", result == min(matrix.rows, matrix.cols))
    tracer.count("rank.empty", matrix.nnz == 0)


def _observe_local_betti(tracer, result, args):
    members = args[1].members
    tracer.count("local_betti.chain_cells", len(members))
    seen = tracer.seed_scope()
    if seen is not None:
        tracer.count("local_betti.repeats", members in seen)
        seen.add(members)


def _observe_closure(tracer, result, args):
    tracer.count("closure.out_faces", len(result))


def _observe_add(tracer, result, args):
    tracer.count("add.accepted", bool(result))


def _observe_cliques(tracer, result, args):
    tracer.count("cliques", len(result))


def installed_wrappers() -> list[str]:
    """Names of pipeline attributes that currently hold a tracing wrapper."""
    from localhomology import analysis, complexes, graphs, homology, linalg, stats

    found = []
    owners = (analysis, complexes.SimplicialComplex, graphs, homology, linalg.IncrementalRank, stats)
    for owner in owners:
        for attr, value in vars(owner).items():
            target = getattr(value, "__func__", value)
            if hasattr(target, "__wrapped__"):
                found.append(f"{owner.__name__}.{attr}")
    found.extend(f"stats.VERTEX_INVARIANTS[{fn.__name__}]" for fn in stats.VERTEX_INVARIANTS if hasattr(fn, "__wrapped__"))
    return found
