"""Summarize benchmark records (the line before the result line of run.py).

    python3 perfbench/summarize.py perfbench/baseline/*.jsonl

For untraced records: per workload, the median and quartile spread
((Q3 - Q1) / median) of each end-to-end metric over the runs, and the
summed fail_frac. For traced records: each layer's share of the traced
pass, from span self times, and the largest spans.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import wall_s
from worker import measured_s


def end_to_end(record) -> dict[str, float]:
    return {
        "wall_s": wall_s(record),
        "setup_s": statistics.median(record["setup_times"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def spread(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def summarize_untraced(workload, records) -> None:
    seeds = sorted(r["seed"] for r in records)
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(f"{workload}: {len(records)} runs, seeds {seeds}, failed {failed} of {attempted} checked")
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        median, rel = spread([end_to_end(r)[name] for r in records])
        print(f"  {name:12s} median {median:10.4f}  spread {rel:.3f}")


def summarize_traced(record, top: int = 6) -> None:
    spans = record["breakdown"]["spans"]
    wall = measured_s(record["traced_times"][0])
    layers: dict[str, float] = {}
    for name, span in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + span["self_s"]
    print(f"{record['workload']} traced pass {wall:.3f} s, seed {record['seed']}, "
          f"overhead {record['metrics']['trace.overhead_frac']:+.3f}")
    print("  by layer: " + ", ".join(
        f"{layer} {share / wall:.0%}" for layer, share in sorted(layers.items(), key=lambda kv: -kv[1])))
    ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    for name, span in ranked:
        print(f"  {name:36s} self {span['self_s'] / wall:6.1%}  calls {span['calls']}")


def main(paths) -> None:
    untraced: dict[str, list] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["trace"]:
                    summarize_traced(record)
                else:
                    untraced.setdefault(record["workload"], []).append(record)
    for workload, records in untraced.items():
        summarize_untraced(workload, records)


if __name__ == "__main__":
    main(sys.argv[1:])
