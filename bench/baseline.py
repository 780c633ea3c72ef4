"""Run every workload over seeds 1-10 and summarise the results.

    python3 bench/baseline.py [--out FILE]

For each workload, runs bench/run.py once per seed untraced and once
traced on seed 1, one run after another, each for the run_seconds of
BENCHMARK.json.  Prints every end-to-end metric by name and unit with
its median, quartiles and spread, (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives the quartiles, then the
same for the wall-clock throughput, failed_frac, the tracing overhead
and each layer's share of the traced self time.  With --out, writes the
same summary as JSON together with the layer map below and a label
naming the commit, Python and processor; bench/baseline.json was
written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
TRACED_SEED = 1
WORKLOADS = ("catalogue", "verify", "queries")

# Which end-to-end metric each layer's per-layer metrics should move,
# on which workload; a layer absent from a workload should move nothing
# there.
LAYER_MAP = {
    "tuples": {
        "catalogue": ["items_per_s", "peak_rss_mb"],
        "queries": ["query_p50_ms (slightly)"],
        "verify": ["items_per_s (barely)"],
    },
    "graphs": {
        "queries": ["query_p50_ms", "query_p90_ms", "items_per_s"],
        "verify": ["items_per_s"],
        "catalogue": ["items_per_s (only through residues inside admissibility)"],
    },
    "moves": {
        "catalogue": ["items_per_s"],
        "verify": ["items_per_s"],
        "queries": [],
    },
    "orbits": {
        "catalogue": ["items_per_s"],
        "verify": ["items_per_s (trap-closure, minimality-agreement)"],
        "queries": ["query_p50_ms (through minimize)"],
    },
    "homology": {
        "verify": ["items_per_s"],
        "catalogue": ["items_per_s (in part)"],
        "queries": ["query_p50_ms (little)"],
    },
    "surgery": {
        "queries": ["query_p50_ms", "query_p90_ms", "items_per_s"],
        "verify": ["items_per_s"],
    },
    "catalogue": {
        "catalogue": ["items_per_s"],
        "verify": ["items_per_s"],
    },
    "cli": {
        "catalogue": ["setup_s"],
        "verify": ["setup_s"],
        "queries": ["setup_s", "query_p50_ms", "query_p90_ms"],
    },
}


def describe_build() -> str:
    """The library's commit, whether src/ differs from it, the Python
    version and the processor."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()

    commit = git("rev-parse", "--short", "HEAD") or "an unknown commit"
    changed = " with uncommitted changes" if git("status", "--porcelain", "src") else ""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in info
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return (
        f"library at {commit}{changed}; Python {platform.python_version()} "
        f"on {os.cpu_count()} x {cpu}"
    )


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median, "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {
        "label": describe_build(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "traced_seed": TRACED_SEED,
        "workloads": {},
    }
    for workload in WORKLOADS:
        results, walls, generator = [], [], []
        for seed in SEEDS:
            result, text = bench_run(workload, seed, seconds, 0)
            results.append(result)
            walls.append(float(re.search(r"wall-clock items_per_s (\S+) ", text)[1]))
            generator += re.findall(r"generator accepted (\d+) of (\d+) draws", text)
        traced, text = bench_run(workload, TRACED_SEED, seconds, 1)
        wall = re.search(r"untraced ([\d.]+) s, traced ([\d.]+) s", text)
        layers = {name: traced["metrics"][f"{name}.self_s"]["value"] for name in LAYERS}
        inside = sum(layers.values())
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "metrics": {
                name: {
                    "unit": metric["unit"],
                    **summarise([r["metrics"][name]["value"] for r in results]),
                }
                for name, metric in results[0]["metrics"].items()
            },
            # the same throughput in wall-clock seconds, to compare its
            # spread with that of the reference-second figure
            "wall_clock_items_per_s": {"unit": "1/s", **summarise(walls)},
            "failed_frac": failed / attempted,
            "tracing": {
                "untraced_s": float(wall[1]),
                "traced_s": float(wall[2]),
                "overhead_s": float(wall[2]) - float(wall[1]),
            },
            "self_time_share": {name: t / inside for name, t in layers.items()},
            "cp_isomorphic_share": traced["metrics"]["graphs.cp_isomorphic.s"]["value"]
            / inside,
        }
        if generator:
            accepted = sum(int(a) for a, _ in generator)
            draws = sum(int(d) for _, d in generator)
            entry["generator_acceptance"] = accepted / draws
        summary["workloads"][workload] = entry
        print(f"== {workload}: {len(SEEDS)} seeds, failed_frac {entry['failed_frac']:.6g}")
        rows = {**entry["metrics"], "wall-clock items_per_s": entry["wall_clock_items_per_s"]}
        for name, m in rows.items():
            print(
                f"{name} {m['median']:.6g} {m['unit']} "
                f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, spread {m['spread']:.2%})"
            )
        t = entry["tracing"]
        print(f"tracing: untraced {t['untraced_s']:.3f} s, traced {t['traced_s']:.3f} s")
        print("self time: " + ", ".join(
            f"{name} {share:.1%}" for name, share in entry["self_time_share"].items()
        ), flush=True)
    if args.out:
        summary["layer_map"] = LAYER_MAP
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
