"""Write the stored reference outputs for the default seed.

    python3 perfbench/make_reference.py [workload ...]

Each file in perfbench/reference/ holds the output of the first graph of
seed 1 for one workload. Regenerate only when the pipeline's results are
meant to change, and check the new files against the oracles first (a
seed-1 benchmark run does that).
"""

from __future__ import annotations

import json
import os
import sys

from worker import DEFAULT_SEED, HERE, load_library

load_library()
from workloads import WORKLOADS, graph_seed  # noqa: E402


def main(names) -> None:
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        output = workload.run(workload.graph(graph_seed(DEFAULT_SEED, 0)))
        path = os.path.join(HERE, "reference", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(output, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}: {workload.items(output)} items")


if __name__ == "__main__":
    main(sys.argv[1:])
