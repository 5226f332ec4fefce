"""One benchmark run of one workload, in its own process.

Started by run.py. Prints `ready` once the inputs exist (that instant ends
set-up), then runs the timed passes, then the correctness checks, and
prints one JSON line with the results. With --setup-only it exits after
`ready`.

Every pass records the wall time of each library call it makes (see
Clock). Untraced (--trace 0): passes cycle through the run's graphs until
the time is spent; call times, peak RSS and output checks are reported.
Traced (--trace 1): untraced and traced passes alternate on the first
graph; the first traced pass gives the per-layer metrics, the two kinds of
pass give the tracing overhead, and both must return identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
from time import perf_counter

from hostspeed import calibration_s, corrected

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

GRAPHS_PER_RUN = 3
DEFAULT_SEED = 1


def load_library():
    """Import localhomology from this checkout's source tree, nothing else."""
    if not os.path.isfile(os.path.join(SRC, "localhomology", "__init__.py")):
        sys.exit(f"benchmark: no localhomology sources under {SRC}")
    sys.path.insert(0, SRC)
    import localhomology

    if os.path.dirname(os.path.dirname(os.path.abspath(localhomology.__file__))) != SRC:
        sys.exit(f"benchmark: imported localhomology from {localhomology.__file__}, not {SRC}")
    return localhomology


class Clock:
    """The `call` hook of a timed pass.

    Records, for each library call, its wall time and the mean time of the
    calibration loop run just before and just after it (hostspeed).
    """

    def __init__(self):
        self.laps: list[tuple[float, float]] = []
        self._calibration = calibration_s()

    def __call__(self, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        after = calibration_s()
        self.laps.append((elapsed, (self._calibration + after) / 2))
        self._calibration = after
        return result


def timed(workload, graph):
    """One pass; returns its (call seconds, calibration seconds) pairs and its output."""
    clock = Clock()
    output = workload.run(graph, clock)
    return clock.laps, output


def measured_s(laps) -> float:
    return sum(elapsed for elapsed, _ in laps)


def pass_s(passes) -> float:
    """Seconds for one pass over a graph at the reference host speed.

    Every pass over a graph makes the same calls in the same order. Each
    call's time is corrected for the host's speed at that moment; the
    median over the passes of each call is taken, and the medians summed.
    """
    if len({len(laps) for laps in passes}) != 1:
        raise ValueError("passes over one graph made different numbers of calls")
    return sum(statistics.median(corrected(*lap) for lap in laps) for laps in zip(*passes))


def reference_check(name: str, output) -> tuple[int, int]:
    """Compare the default seed's first output with the stored reference."""
    from workloads import same

    with open(os.path.join(HERE, "reference", f"{name}.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(output))  # tuples become lists, as stored
    if isinstance(want, dict):
        pairs = [(got.get(part, {}).get(key), value) for part in want for key, value in want[part].items()]
        extra = sum(len(v) for v in got.values()) - len(pairs)
    else:
        pairs = list(zip(got, want))
        extra = abs(len(got) - len(want))
    failed = sum(not same(g, w) for g, w in pairs) + extra
    return len(pairs) + extra, failed


def untraced_run(workload, graphs, seconds):
    from tracing import installed_wrappers

    attempted, failed = 1, int(bool(installed_wrappers()))
    times: list[list[list[tuple[float, float]]]] = [[] for _ in graphs]
    outputs = {}
    passes, dt = 0, 0.0
    start = perf_counter()
    while passes < len(graphs) or perf_counter() - start + dt <= seconds:
        index = passes % len(graphs)
        laps, output = timed(workload, graphs[index])
        times[index].append(laps)
        dt = measured_s(laps)
        passes += 1
        if index in outputs:
            # A repeated pass must reproduce its first output exactly.
            attempted += 1
            failed += output != outputs[index]
        else:
            outputs[index] = output
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "times_by_graph": times,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
    }


def traced_run(workload, graph, seconds):
    from tracing import Tracer

    plain, traced, first = [], [], None
    attempted = failed = 0
    output = None
    start = perf_counter()
    while not traced or perf_counter() - start + measured_s(plain[-1]) + measured_s(traced[-1]) <= seconds:
        laps, output = timed(workload, graph)
        plain.append(laps)
        tracer = Tracer()
        tracer.install()
        try:
            laps, traced_output = timed(workload, graph)
        finally:
            tracer.uninstall()
        traced.append(laps)
        if first is None:
            first = tracer
        attempted += 1
        failed += traced_output != output
    metrics = first.metrics()
    metrics["trace.overhead_frac"] = pass_s(traced) / pass_s(plain) - 1
    return {
        "untraced_times": plain,
        "traced_times": traced,
        "outputs": {0: output},
        "metrics": metrics,
        "breakdown": first.breakdown(),
        "attempted": attempted,
        "failed": failed,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    load_library()
    import numpy  # part of set-up: the library's own dependency
    from workloads import WORKLOADS, graph_seed

    workload = WORKLOADS[args.workload]
    seeds = [graph_seed(args.seed, i) for i in range(GRAPHS_PER_RUN)]
    graphs = [workload.graph(s) for s in seeds]
    print("ready", flush=True)
    if args.setup_only:
        return

    if args.trace:
        result = traced_run(workload, graphs[0], args.seconds)
    else:
        result = untraced_run(workload, graphs, args.seconds)

    # Checks run after all timing.
    check_start = perf_counter()
    outputs = result.pop("outputs")
    attempted, failed = result["attempted"], result["failed"]
    for index, output in sorted(outputs.items()):
        a, f = workload.check(graphs[index], output, random.Random(seeds[index]))
        attempted, failed = attempted + a, failed + f
    if args.seed == DEFAULT_SEED:
        a, f = reference_check(workload.name, outputs[0])
        attempted, failed = attempted + a, failed + f
    result.update(
        check_s=perf_counter() - check_start,
        python=platform.python_version(),
        numpy=numpy.__version__,
        attempted=attempted,
        failed=failed,
        graphs=[
            {"library_seed": s, "vertices": g.n, "edges": g.edge_count, "items": workload.items(outputs[i])}
            for i, (s, g) in enumerate(zip(seeds, graphs))
            if i in outputs
        ],
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
