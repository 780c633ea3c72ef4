"""One workload process of the twosym benchmark.

Reads a job from standard input as JSON:

    {"queries": [[argv, ...], ...], "trace": bool}

and calls ``twosym.cli.main(argv)`` for every argv, in order, in this
single fresh process, so the library's caches start cold as they do for
a command-line user.  A query is the group of calls whose summed time is
one latency sample.  Standard output and error of each call are
captured, and so are warnings, which are counted instead of printed.

Other tenants of a shared machine slow this process down by tens of
percent for seconds at a time.  While the queries run, a SpeedProbe
times a fixed piece of reference work every 50 ms, and each query's
latency is measured in reference works done at the speed measured
around it, which divides that slowdown out.

Writes one JSON object to standard output: the monotonic time of the
first call into ``twosym.cli.main`` (the parent subtracts its launch
time to get set-up time), the probe's median sample, each query's latency
in reference works, the pass's wall-clock time, the captured outputs,
the number of ``CanonicalAmbiguity`` warnings that reached the caller,
the process's peak resident set and, with tracing on, the span table.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import twosym.cli  # noqa: E402
import twosym.moves  # noqa: E402

# None once the canonical filter is complete and the warning is gone
AMBIGUITY = getattr(twosym.moves, "CanonicalAmbiguity", None)
# A sample counts as at most this many times the fastest one seen, so
# that a sample preempted part way does not make its whole stretch
# count as less work; a slowdown up to this factor is divided out.
CLAMP = 3


def reference_work() -> None:
    """Fixed interpreter-bound work (about 0.4 ms on an idle core)."""
    table: dict[int, int] = {}
    for i in range(3000):
        key = i % 61
        table[key] = table.get(key, 0) + i * 7 % 13


class SpeedProbe:
    """How much work this process does per second, right now.

    Runs reference_work from a SIGALRM handler every interval seconds of
    wall time, and once on entry.  work() reads a clock that counts
    reference works: between samples it advances at the rate the latest
    sample measured, clamped by CLAMP, so a stretch run at half speed
    counts half, and time spent in the handler does not count.  samples
    holds every sample's duration.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.done = 0.0  # reference works counted up to self.since
        self.since = 0.0
        self.rate = 0.0
        self.fastest = float("inf")

    def sample(self, *_) -> None:
        start = time.perf_counter()
        self.done += (start - self.since) * self.rate
        reference_work()
        self.since = time.perf_counter()
        self.samples.append(self.since - start)
        self.fastest = min(self.fastest, self.samples[-1])
        self.rate = 1 / min(self.samples[-1], CLAMP * self.fastest)

    def work(self) -> float:
        while True:  # retry if a sample lands mid-read
            taken = len(self.samples)
            value = self.done + (time.perf_counter() - self.since) * self.rate
            if len(self.samples) == taken:
                return value

    def __enter__(self) -> SpeedProbe:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_kib() -> int:
    """This process's peak resident set in KiB.  On Linux, ru_maxrss also
    counts the memory the parent had when it forked this process, so
    the kernel's high-water mark for the current image is read instead."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            sys.exit("traced functions not found in twosym: " + ", ".join(missing))
    first_call = time.monotonic()
    work, outputs = [], []
    ambiguities = 0
    with SpeedProbe() as probe:
        began = time.perf_counter()
        for query in job["queries"]:
            calls = []
            start = probe.work()
            for argv in query:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
                    err
                ), warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = twosym.cli.main(argv)
                ambiguities += sum(1 for w in caught if w.category is AMBIGUITY)
                calls.append(
                    {"code": code, "out": out.getvalue(), "err": err.getvalue()}
                )
            work.append(probe.work() - start)
            outputs.append(calls)
        wall = time.perf_counter() - began
    return {
        "first_call": first_call,
        "work": work,
        "wall_s": wall,
        "reference_s": statistics.median(probe.samples),
        "outputs": outputs,
        "ambiguities": ambiguities,
        "peak_rss_kib": peak_rss_kib(),
        "trace": tracer.report() if tracer else None,
    }


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
