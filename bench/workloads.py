"""The benchmark's workloads: the inputs of each pass and the oracle
that checks its outputs.

A pass is one fresh workload process (see worker.py); its input is a
list of queries, each a list of ``twosym`` command lines.  ``check``
returns how many items each query completed and how many of them are
wrong, judged against pinned reference values.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

Query = list[list[str]]


@dataclass(frozen=True)
class Check:
    items: list[int]  # items completed by each query
    failed: int
    problems: list[str]


# Census facts at each catalogue bound: records, visible orbits, traps,
# and the sha256 of the TSV (header included, rows joined by newlines,
# no final newline) with its warnings column dropped.  That column holds
# canonical-ambiguity notes, which a complete canonical filter removes
# without changing the catalogue.
CATALOGUE_PINS = {
    11: (
        85, 42, 14,
        "b1b3eb3e7748915bdac3e142e6fe8bee35d5b1a4b3ba4e7ad9477c156ea2a875",
    ),
    19: (
        1602, 594, 57,
        "4afe31eb9f23f5ef84b8bc8532e034c6d40ca957f650269b0a7c3c66d3f1012f",
    ),
}

# Checks each verification suite makes at its documented bound, in the
# library's SUITES order.
SUITE_CHECKS = {
    "laws": 1953,
    "sigma-constructive": 592,
    "homology-invariance": 1953,
    "minimality-agreement": 432,
    "trap-closure": 197,
    "genus-embedding": 1953,
    "canonical-uniqueness": 197,
    "catalogue-smoke": 3,
}


class Catalogue:
    """``twosym catalogue --max-complexity N --out FILE``: one query per
    pass, one item per catalogue record.  The census is fixed, so the
    seed does not change the input."""

    def __init__(self, root: Path, max_complexity: int = 19):
        self.max_complexity = max_complexity
        self.out_dir = root / ".bench_out"
        self.out_dir.mkdir(exist_ok=True)

    def passes(self, seed: int) -> Iterator[list[Query]]:
        k = 0
        while True:
            out = self.out_dir / f"catalogue-{self.max_complexity}-{k}.tsv"
            yield [[[
                "catalogue",
                "--max-complexity", str(self.max_complexity),
                "--out", str(out),
            ]]]
            k += 1

    def check(self, queries: list[Query], outputs: list) -> Check:
        records, orbits, traps, digest = CATALOGUE_PINS[self.max_complexity]
        problems = []
        (argv,), (call,) = queries[0], outputs[0]
        if call["code"] != 0:
            problems.append(f"catalogue exited with {call['code']}")
        else:
            rows = [
                line.split("\t")
                for line in Path(argv[-1]).read_text().splitlines()
            ]
            got = (
                len(rows) - 1,
                len({row[7] for row in rows[1:]}),
                sum(1 for row in rows[1:] if row[2] == "true"),
                hashlib.sha256(
                    "\n".join("\t".join(row[:-1]) for row in rows).encode()
                ).hexdigest(),
            )
            if got != (records, orbits, traps, digest):
                problems.append(
                    f"catalogue {got} differs from the pinned "
                    f"{(records, orbits, traps, digest)}"
                )
        return Check([records], records if problems else 0, problems)


class Verify:
    """The ``twosym verify`` suites in one process, in SUITES order, each
    at its documented bound: one query per suite, one item per check.
    The suites are fixed, so the seed does not change the input."""

    HEAD = re.compile(r"^(\S+): (\d+) checks, (\d+) failures")

    def __init__(self, root: Path, suites: tuple[str, ...] = tuple(SUITE_CHECKS)):
        self.suites = suites

    def passes(self, seed: int) -> Iterator[list[Query]]:
        while True:
            yield [[["verify", suite]] for suite in self.suites]

    def check(self, queries: list[Query], outputs: list) -> Check:
        items, failed, problems = [], 0, []
        for suite, (call,) in zip(self.suites, outputs):
            expected = SUITE_CHECKS[suite]
            head = self.HEAD.match(call["out"])
            got = (
                (call["code"], head[1], int(head[2]), int(head[3]))
                if head
                else (call["code"],)
            )
            items.append(expected)
            if got != (0, suite, expected, 0):
                failed += expected
                problems.append(f"verify {suite}: got {got}, expected {expected} checks")
        return Check(items, failed, problems)


def query_digest(calls: list) -> str:
    """Digest of one query's exit codes and standard outputs.  Lines
    starting ``note:`` are dropped: classify prints canonical-ambiguity
    notes there, which a complete canonical filter removes without
    changing the result."""
    kept = [
        [call["code"], [line for line in call["out"].splitlines()
                        if not line.startswith("note:")]]
        for call in calls
    ]
    return hashlib.sha256(json.dumps(kept).encode()).hexdigest()[:16]


def random_tuples(seed: int, low: int, high: int, block: int, stats: dict) -> Iterator:
    """Seeded admissible tuples of complexity low..high.

    Each block of tuples takes one complexity from each of block equal
    slices of low..high, uniformly within the slice and in random order,
    so complexity is uniform and a pass's mix of sizes stays the same
    from seed to seed.  For each complexity an h-composition with all
    parts of one parity is drawn uniformly (stars and bars on the
    half-parts), then each shift uniformly from the opposite parity
    class below its cycle length, until the tuple is admissible.  stats
    counts the draws and the accepted ones.
    """
    from twosym import SixTuple, is_admissible

    rng = random.Random(seed)
    width = (high - low + 1) / block
    while True:
        totals = [low + int((k + rng.random()) * width) for k in range(block)]
        rng.shuffle(totals)
        for total in totals:
            odd = total % 2
            spare = (total - 3) // 2 if odd else (total - 6) // 2
            while True:
                cut1, cut2 = sorted(rng.sample(range(spare + 2), 2))
                halves = (cut1, cut2 - cut1 - 1, spare + 1 - cut2)
                h = [2 * x + 1 if odd else 2 * x + 2 for x in halves]
                q = [
                    (1 - odd) + 2 * rng.randrange((h[i - 1] + h[i]) // 2)
                    for i in range(3)
                ]
                f = SixTuple(*h, *q)
                stats["draws"] += 1
                if is_admissible(f):
                    stats["accepted"] += 1
                    yield f
                    break


class Queries:
    """Per admissible tuple, ``twosym classify``, ``twosym sigma --trace``
    and ``twosym minimize``: one query per tuple, each tuple seen once.
    The tuples come from random_tuples, run in the parent (run.py), so
    the workload process gets only their strings and starts with cold
    caches.  A query's cost varies several-fold with the tuple's shape,
    so a run needs hundreds of them for steady figures; passes of 50
    fill the run's time closely.

    Every query must exit 0 and its sigma must be the library's.  The
    first passes of seeds 1-10 are pinned too: query_pins.json, written
    by pin_queries.py, holds each one's query_digest by tuple."""

    def __init__(
        self, root: Path, per_pass: int = 50, low: int = 200, high: int = 400
    ):
        self.per_pass, self.low, self.high = per_pass, low, high
        self.stats = {"draws": 0, "accepted": 0}
        pins = Path(__file__).resolve().parent / "query_pins.json"
        self.pins = json.loads(pins.read_text())["digests"]

    def passes(self, seed: int) -> Iterator[list[Query]]:
        stream = random_tuples(seed, self.low, self.high, self.per_pass, self.stats)
        while True:
            batch = [str(next(stream)) for _ in range(self.per_pass)]
            yield [
                [["classify", t], ["sigma", t, "--trace"], ["minimize", t]]
                for t in batch
            ]

    def check(self, queries: list[Query], outputs: list) -> Check:
        from twosym import parse_tuple, sigma

        failed, problems = 0, []
        for query, calls in zip(queries, outputs):
            text = query[0][1]
            codes = [call["code"] for call in calls]
            moved = calls[1]["out"].splitlines()[:1]
            expected = str(sigma(parse_tuple(text)))
            pinned = self.pins.get(text)
            if codes != [0, 0, 0] or moved != [expected]:
                failed += 1
                problems.append(f"{text}: exit codes {codes}, sigma {moved} != {expected}")
            elif pinned is not None and query_digest(calls) != pinned:
                failed += 1
                problems.append(f"{text}: outputs differ from the pinned {pinned}")
        return Check([1] * len(queries), failed, problems)


WORKLOADS = {"catalogue": Catalogue, "verify": Verify, "queries": Queries}
