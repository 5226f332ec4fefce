"""Benchmark of the exact local-homology pipeline.

    python3 perfbench/run.py --workload er_profile --seed 1 --seconds 24 --trace 0

Run from the repository root. Each run starts fresh single-threaded worker
processes (perfbench/worker.py) on the library in src/: several that only
set up, to time set-up, then one that measures. The last line of standard
output is the result, one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the full record of the run
(versions, commit, seed, item counts, every pass time and, when traced, the
span breakdown). Workloads are described in perfbench/workloads.py.

Metrics with --trace 0:
  wall_s       seconds per graph from generated graph to final result (flag
               complex included): passes cycle through the run's graphs,
               every library call of a pass is timed and corrected for the
               host's speed at that moment (hostspeed.py), a graph's time
               is the sum over its calls of each call's median; the mean
               over the run's graphs is reported
  setup_s      median over 15 fresh processes of seconds from interpreter start
               to inputs ready (numpy and localhomology imported, graphs
               made), each corrected for the host's speed around it
  peak_rss_mb  peak resident memory of the measuring process
With --trace 1: the per-layer metrics of tracing.Tracer.metrics and
trace.overhead_frac. attempted and failed count the output items checked
against stored references and oracles; failed / attempted is fail_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from hostspeed import calibration_s, corrected
from worker import pass_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("er_profile", "er_strata", "grid_corr", "er_persist")

SETUP_PROBES = 15
CALIBRATION_LOOPS = 3  # on each side of a set-up probe, which is far longer than one loop
TIMEOUT_S = 170


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # One thread everywhere, numpy's BLAS included; the library default is serial.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, setup_only: bool, deadline: float):
    """Start a worker; return it with the seconds until it printed `ready`."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RunError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    """Wait for a worker within the deadline and return its remaining output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker timed out")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def probe_setup(args, deadline: float) -> float:
    """Set-up seconds of one fresh worker, at the reference host speed."""
    before = calibration_s(CALIBRATION_LOOPS)
    proc, setup_s = start_worker(args, True, deadline)
    finish(proc, deadline)
    return corrected(setup_s, (before + calibration_s(CALIBRATION_LOOPS)) / 2)


def measure(args) -> dict:
    deadline = perf_counter() + TIMEOUT_S
    # Half the set-up probes run before the measuring worker and half after.
    setups = [probe_setup(args, deadline) for _ in range(SETUP_PROBES // 2)]
    proc, worker_setup_s = start_worker(args, False, deadline)
    try:
        lines = finish(proc, deadline).strip().splitlines()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    setups += [probe_setup(args, deadline) for _ in range(SETUP_PROBES - len(setups))]
    if not lines:
        raise RunError("worker printed no result")
    record = json.loads(lines[-1])
    record["setup_times"] = setups
    record["worker_setup_s"] = worker_setup_s
    return record


def wall_s(record) -> float:
    """Mean over the run's graphs of the graph's pass time (worker.pass_s)."""
    return statistics.mean(pass_s(passes) for passes in record["times_by_graph"])


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        record = measure(args)
    except (RunError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in record["metrics"].items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s(record), "unit": "s"},
            "setup_s": {"value": statistics.median(record["setup_times"]), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = record["attempted"], record["failed"]
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        commit=git_commit(),
        fail_frac=failed / attempted,
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
