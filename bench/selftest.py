"""Self-test of the benchmark at a small size.

    python3 bench/selftest.py

Runs every workload once untraced and once traced, each at a reduced
size, and checks that the outputs pass the oracle, that every metric
listed in BENCHMARK.json is reported with its unit, and that the counts
reconcile:

- candidates scanned = admissible tuples + rejected candidates;
- catalogue.classify_record.calls = the number of catalogue records;
- the checks the suites report sum to the verify item count;
- graphs.cp_isomorphic.anchors >= graphs.cp_isomorphic.calls.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import Catalogue, Queries, Verify

SMALL = {
    "catalogue": lambda root: Catalogue(root, max_complexity=11),
    "verify": lambda root: Verify(
        root, suites=("sigma-constructive", "genus-embedding", "catalogue-smoke")
    ),
    "queries": lambda root: Queries(root, per_pass=5, low=30, high=60),
}


def reconcile(workload: str, values: dict, items: int) -> list[str]:
    """Count identities a traced pass must satisfy; items is the number
    of items in that pass."""
    problems = []
    scanned = values["tuples.scan.admissible"] + values["tuples.scan.rejected"]
    if values["tuples.scan.candidates"] != scanned:
        problems.append(
            f"scanned {values['tuples.scan.candidates']} != admissible + "
            f"rejected {scanned}"
        )
    if values["graphs.cp_isomorphic.anchors"] < values["graphs.cp_isomorphic.calls"]:
        problems.append("fewer cp_isomorphic anchors than calls")
    if workload == "catalogue" and values["catalogue.classify_record.calls"] != items:
        problems.append(
            f"classify_record ran {values['catalogue.classify_record.calls']} "
            f"times for {items} records"
        )
    if workload == "verify" and values["catalogue.run_suite.checks"] != items:
        problems.append(
            f"suites report {values['catalogue.run_suite.checks']} checks, "
            f"the outputs {items}"
        )
    if workload != "queries" and values["tuples.scan.candidates"] == 0:
        problems.append("no candidates scanned")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name, make in SMALL.items():
        for trace in (False, True):
            result, _ = run.measure(make(run.ROOT), seed=1, seconds=0.1, trace=trace)
            where = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: outputs failed the oracle")
            listed = spec["per_layer" if trace else "end_to_end"]
            for metric in listed:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} missing or mislabelled")
                elif not isinstance(got["value"], (int, float)):
                    problems.append(f"{where}: {metric['name']} is not a number")
            values = {key: m["value"] for key, m in result["metrics"].items()}
            if trace:
                # a traced run checks the same input untraced and traced
                items = result["attempted"] // 2
                problems += [f"{where}: {p}" for p in reconcile(name, values, items)]
            elif min(values.values()) <= 0:
                problems.append(f"{where}: an end-to-end metric is not positive")
            print(f"{where}: {result['attempted']} items checked")
    print("\n".join(problems) or "self-test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
