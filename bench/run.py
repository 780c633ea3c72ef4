"""Benchmark of the twosym command-line tool.

    python3 bench/run.py --workload {catalogue,verify,queries}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src``.  Each pass of a workload is a fresh single-threaded process
(bench/worker.py) that calls ``twosym.cli.main`` as the ``twosym``
command does, so caches start cold and peak memory is that process's
alone.  Passes run one after another, with no threads or pools, until
the next one would take the measured time past ``--seconds``.  The
outputs of every pass are checked after it ends (bench/workloads.py).

Times are in reference seconds.  A shared machine's other tenants slow
a process down by tens of percent for seconds at a time, which would
swamp the differences the benchmark exists to show.  The worker samples
that slowdown while a pass runs by timing fixed reference work (see
worker.SpeedProbe) and reports each query's latency in reference works
done, each counted as REFERENCE_S seconds.  Set-up time and the
traced span times are scaled by REFERENCE_S over the median sample.  On
an idle machine a reference second is close to a wall-clock second;
the wall-clock throughput is printed too.

With ``--trace 0`` the end-to-end metrics are measured untraced.  With
``--trace 1`` one pass runs untraced and then again traced on the same
input (bench/tracing.py); the traced process gives the per-layer
metrics and the difference in their times is the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The metric names and units are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# worker.reference_work's duration, roughly, on an idle core of the
# machine the baseline was measured on (a 2-vCPU Intel Xeon VM running
# CPython 3.11)
REFERENCE_S = 0.0004
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to wrong outputs)."""


def launch(job: dict, deadline: float) -> dict:
    """Run one workload process on job and return its report, with
    setup_s measured from launch to the first call into the CLI."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process failed:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    scale = REFERENCE_S / report["reference_s"]
    report["setup_s"] = (report["first_call"] - start) * scale
    report["seconds"] = [w * REFERENCE_S for w in report["work"]]
    for key, value in (report["trace"] or {}).items():
        if key.endswith((".s", "_s")):
            report["trace"][key] = value * scale
    return report


def job(queries: list, trace: bool = False) -> dict:
    return {"queries": queries, "trace": trace}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the sample range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(workload, seed: int, seconds: float, deadline: float):
    """End-to-end metrics over as many passes as fit in seconds."""
    passes = workload.passes(seed)
    setup, latencies, rss, checks = [], [], [], []
    ambiguities = 0
    spent = 0.0  # wall-clock seconds in passes
    queries = next(passes)
    while True:
        report = launch(job(queries), deadline)
        check = workload.check(queries, report["outputs"])
        checks.append(check)
        setup.append(report["setup_s"])
        latencies += report["seconds"]
        rss.append(report["peak_rss_kib"] * 1024 / 1e6)
        ambiguities += report["ambiguities"]
        spent += report["wall_s"]
        if spent / len(checks) * (len(checks) + 1) > seconds:
            break
        queries = next(passes)
    # throughput over all passes together: a pass's queries are a small
    # sample of the seed's, so per-pass rates spread more than the whole
    items = sum(sum(c.items) for c in checks)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": items / sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p90_ms": quantile(latencies, 90) * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }
    notes = [
        f"{len(checks)} passes, {len(latencies)} queries",
        f"canonical ambiguities reaching the caller: {ambiguities}",
        f"wall-clock items_per_s {items / spent:.6g} 1/s",
    ]
    return metrics, checks, notes


def traced(workload, seed: int, seconds: float, deadline: float):
    """Per-layer metrics from one traced pass, and the tracing overhead
    against the same pass untraced."""
    queries = next(workload.passes(seed))
    plain = launch(job(queries), deadline)
    spans = launch(job(queries, trace=True), deadline)
    checks = [
        workload.check(queries, plain["outputs"]),
        workload.check(queries, spans["outputs"]),
    ]
    metrics = dict(spans["trace"])
    scanned = metrics["tuples.scan.candidates"]
    metrics["tuples.admissible_ratio"] = (
        metrics["tuples.scan.admissible"] / scanned if scanned else 0.0
    )
    wall = sum(plain["seconds"]), sum(spans["seconds"])
    metrics["trace.overhead_s"] = wall[1] - wall[0]
    inside = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    shares = sorted(
        ((metrics[name] / inside, name) for name in metrics if name.endswith(".s")),
        reverse=True,
    )
    notes = [
        f"untraced {wall[0]:.3f} s, traced {wall[1]:.3f} s (reference seconds)",
        "largest self-time shares: "
        + ", ".join(f"{name} {share:.1%}" for share, name in shares[:5]),
    ]
    return metrics, checks, notes


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run one workload; return the result object and the human lines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    run = traced if trace else untraced
    values, checks, notes = run(workload, seed, seconds, deadline)
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    attempted = sum(sum(c.items) for c in checks)
    failed = sum(c.failed for c in checks)
    lines = [*notes]
    lines += [problem for c in checks for problem in c.problems[:5]]
    lines.append(f"attempted {attempted}, failed {failed}, "
                 f"failed_frac {failed / attempted:.6g}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "twosym" / "cli.py").is_file():
        print(f"error: no twosym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT)
    try:
        result, lines = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    stats = getattr(workload, "stats", None)
    if stats:
        print(f"generator accepted {stats['accepted']} of {stats['draws']} draws")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
