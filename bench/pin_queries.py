"""Pin the outputs of the queries workload for seeds 1-10.

    python3 bench/pin_queries.py

Runs the first PASSES passes of the queries workload for each seed in
SEEDS, untimed, in workload processes as run.py does, and writes each
query's digest (workloads.query_digest), keyed by its tuple, to
bench/query_pins.json, which the queries oracle checks.  Run it only at
a commit whose outputs are trusted; the file names the commit it was
written at.  PASSES covers the passes a 40-second run makes on a
machine half again as fast as the one the baseline was measured on;
later passes, and other seeds, are checked without pins.
"""

from __future__ import annotations

import json
import sys
import time

import run
from baseline import describe_build

SEEDS = range(1, 11)
PASSES = 12
OUT = run.BENCH / "query_pins.json"


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    OUT.write_text(json.dumps({"digests": {}}))  # Queries reads it on creation
    from workloads import Queries, query_digest

    digests = {}
    for seed in SEEDS:
        passes = Queries(run.ROOT).passes(seed)
        for k in range(PASSES):
            queries = next(passes)
            deadline = time.monotonic() + run.RUN_LIMIT_S
            report = run.launch(run.job(queries), deadline)
            for query, calls in zip(queries, report["outputs"]):
                if [call["code"] for call in calls] != [0, 0, 0]:
                    raise run.BenchError(f"{query[0][1]} failed: {calls}")
                digests[query[0][1]] = query_digest(calls)
            print(f"seed {seed} pass {k}: {len(digests)} tuples pinned", flush=True)
    pins = {
        "label": describe_build(),
        "seeds": list(SEEDS),
        "passes": PASSES,
        "digests": digests,
    }
    OUT.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
