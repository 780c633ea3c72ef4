"""Catalogue enumeration, classification records and verification suites.

enumerate_admissible lists every admissible tuple up to a complexity
bound by scanning positive equal-parity h-triples and the compatible
shifts below each cycle length; enumerate_canonical keeps one member
per relabelling orbit.  classify_record bundles the trap, minimality,
root and homology facts for one tuple; build_catalogue does this for a
whole complexity range, numbering the move-orbit components it can see,
and the result round-trips through a tab-separated text form.

run_suite executes one of the named batch checks (group laws, the
constructive move verification, homology invariance, agreement of the
minimality forms, trap closure, surface embedding, uniqueness of the
canonical representative, and the small-catalogue smoke test), each at
its documented complexity bound, and reports a structured pass/fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .graphs import cancel_block, cancel_block_by_dipoles, embedding_euler
from .homology import AbelianGroupSignature, h1, parse_signature
from .moves import (
    canonical,
    canonical_candidates,
    delta,
    h_orbit,
    psi1,
    psi2,
    psi3,
    sigma,
)
from .orbits import (
    TrapWitness,
    ascend_witness,
    descent_minimal,
    descent_root,
    explore,
    is_minimal,
    is_root,
    is_trap,
)
from .surgery import build_gf, verify_sigma_constructively
from .tuples import (
    AdmissibilityReport,
    SixTuple,
    admissibility,
    build_graph,
    is_admissible,
    require_admissible,
    zero_q_count,
)


# -- enumeration ---------------------------------------------------------------


def enumerate_candidates(max_complexity: int) -> Iterator[SixTuple]:
    """Every valid tuple with complexity at most the bound whose h_i + q_i
    are all odd, ordered by (complexity, lexicographic): the tuples the
    {2,3}-residue count decides between.  The loops produce only valid
    tuples, so they are built without re-validation."""
    for total in range(3, max_complexity + 1):
        for h0 in range(1, total - 1):
            for h1 in range(1, total - h0):
                h2 = total - h0 - h1
                if h0 % 2 != h1 % 2 or h0 % 2 != h2 % 2:
                    continue
                moduli = (h2 + h0, h0 + h1, h1 + h2)
                starts = tuple((h + 1) % 2 for h in (h0, h1, h2))
                for q0 in range(starts[0], moduli[0], 2):
                    for q1 in range(starts[1], moduli[1], 2):
                        for q2 in range(starts[2], moduli[2], 2):
                            yield SixTuple._trusted((h0, h1, h2, q0, q1, q2))


def enumerate_admissible(max_complexity: int) -> Iterator[SixTuple]:
    """Every admissible tuple with complexity at most the bound, ordered
    by (complexity, lexicographic)."""
    for f in enumerate_candidates(max_complexity):
        if is_admissible(f):
            yield f


def enumerate_canonical(max_complexity: int) -> Iterator[SixTuple]:
    """The canonical admissible tuples with complexity at most the
    bound: one per relabelling orbit, ordered by (complexity, lex)."""
    for f in enumerate_admissible(max_complexity):
        if f.h0 <= f.h1 <= f.h2 and canonical(f) == f:
            yield f


# -- classification records ----------------------------------------------------


@dataclass(frozen=True)
class CatalogueRecord:
    """Everything the catalogue knows about one canonical tuple."""

    tuple: SixTuple
    upsilon: int
    trap: TrapWitness | None
    minimal: bool
    root: bool
    h1: AbelianGroupSignature
    orbit_id: int | None
    warnings: tuple[str, ...]

    def __post_init__(self) -> None:
        require_admissible(self.tuple)
        if canonical(self.tuple) != self.tuple:
            raise ValueError(f"record tuple {self.tuple} is not canonical")
        if self.upsilon != self.tuple.upsilon:
            raise ValueError(f"complexity mismatch on {self.tuple}")
        if self.root and not self.minimal:
            raise ValueError(f"{self.tuple} flagged root but not minimal")

    @property
    def diagnosis(self) -> AdmissibilityReport:
        return admissibility(self.tuple)


def classify_record(f: SixTuple, orbit_id: int | None = None) -> CatalogueRecord:
    """Classify one canonical admissible tuple.

    The record's only note marks a tuple outside the growth argument's
    guard (two vanishing shifts encode a manifold of lower genus)."""
    notes = ()
    if zero_q_count(f) > 1:
        notes = ("two vanishing shifts: lower-genus tuple, ascent not applicable",)
    return CatalogueRecord(
        f, f.upsilon, is_trap(f), is_minimal(f), is_root(f),
        h1(build_graph(f)), orbit_id, notes,
    )


def assign_orbit_ids(tuples: list[SixTuple]) -> dict[SixTuple, int]:
    """Union-find over the move edges visible inside the given set;
    components are numbered by first appearance in the input order."""
    parent = {f: f for f in tuples}

    def find(x: SixTuple) -> SixTuple:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    from .moves import sigma_neighbors

    for f in tuples:
        for nb in sigma_neighbors(f):
            if nb in parent:
                parent[find(f)] = find(nb)
    ids: dict[SixTuple, int] = {}
    component: dict[SixTuple, int] = {}
    for f in tuples:
        root = find(f)
        if root not in component:
            component[root] = len(component)
        ids[f] = component[root]
    return ids


def build_catalogue(max_complexity: int) -> list[CatalogueRecord]:
    """Classified records for every canonical admissible tuple up to the
    bound, in (complexity, lex) order, with orbit ids for the move
    components visible inside it."""
    canon = list(enumerate_canonical(max_complexity))
    ids = assign_orbit_ids(canon)
    return [classify_record(f, ids[f]) for f in canon]


# -- tab-separated text form -----------------------------------------------------


TSV_COLUMNS = (
    "tuple",
    "upsilon",
    "trap",
    "trap_type",
    "minimal",
    "root",
    "h1",
    "orbit_id",
    "warnings",
)


def records_to_tsv(records: list[CatalogueRecord]) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for r in records:
        lines.append(
            "\t".join(
                (
                    str(r.tuple),
                    str(r.upsilon),
                    "true" if r.trap else "false",
                    f"{r.trap.r},{r.trap.s}" if r.trap else "",
                    "true" if r.minimal else "false",
                    "true" if r.root else "false",
                    str(r.h1),
                    "" if r.orbit_id is None else str(r.orbit_id),
                    "; ".join(r.warnings),
                )
            )
        )
    return "\n".join(lines) + "\n"


def records_from_tsv(text: str) -> list[CatalogueRecord]:
    """Inverse of records_to_tsv.  The trap witness is recomputed from
    the tuple (the scan is deterministic) and checked against the stored
    columns, so a parsed catalogue equals the one that was written."""
    from .tuples import parse_tuple

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split("\t") != list(TSV_COLUMNS):
        raise ValueError("missing or malformed header row")
    records = []
    for ln in lines[1:]:
        cells = ln.split("\t")
        if len(cells) != len(TSV_COLUMNS):
            raise ValueError(f"expected {len(TSV_COLUMNS)} columns: {ln!r}")
        f = parse_tuple(cells[0])
        trap = is_trap(f)
        stored = f"{trap.r},{trap.s}" if trap else ""
        if (cells[2] == "true") != (trap is not None) or cells[3] != stored:
            raise ValueError(f"trap columns disagree with the scan on {f}")
        records.append(
            CatalogueRecord(
                f,
                int(cells[1]),
                trap,
                cells[4] == "true",
                cells[5] == "true",
                parse_signature(cells[6]),
                int(cells[7]) if cells[7] else None,
                tuple(cells[8].split("; ")) if cells[8] else (),
            )
        )
    return records


# -- verification suites ---------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checked: int
    failures: tuple[str, ...]
    notes: tuple[str, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        head = (
            f"{self.suite}: {self.checked} checks, "
            f"{len(self.failures)} failures ({self.seconds:.1f}s)"
        )
        body = [f"  FAIL {msg}" for msg in self.failures]
        body += [f"  note {msg}" for msg in self.notes]
        return "\n".join([head, *body])


def _suite_laws(bound: int):
    failures = []
    checked = 0
    for f in enumerate_admissible(bound):
        checked += 1
        if sigma(sigma(f)) != f:
            failures.append(f"move not involutive on {f}")
        if sigma(psi2(f)) != psi2(sigma(f)):
            failures.append(f"move does not commute with reversal on {f}")
        if sigma(psi3(f)) != psi3(sigma(f)):
            failures.append(f"move does not commute with negation on {f}")
        if psi1(psi1(psi1(f))) != f:
            failures.append(f"rotation cubed is not the identity on {f}")
        if psi2(psi2(f)) != f or psi3(psi3(f)) != f:
            failures.append(f"a reflection fails to be an involution on {f}")
        if psi1(psi2(f)) != psi2(psi1(psi1(f))):
            failures.append(f"dihedral braiding relation fails on {f}")
    return checked, failures, []


def _suite_sigma_constructive(bound: int):
    failures = []
    checked = 0
    for f in enumerate_admissible(bound):
        if f.q0 == 0:
            continue
        checked += 1
        report = verify_sigma_constructively(f)
        if not report.ok:
            failures.append(f"{f}: " + "; ".join(report.failures))
    return checked, failures, []


def _suite_homology_invariance(bound: int, surgery_stride: int = 41):
    failures = []
    checked = 0
    for index, f in enumerate(enumerate_admissible(bound)):
        checked += 1
        base = h1(build_graph(f))
        moved = sigma(f)
        if moved.upsilon != f.upsilon + delta(f):
            failures.append(f"complexity change wrong under the move on {f}")
        for name, image in (
            ("move", moved),
            ("rotation", psi1(f)),
            ("reversal", psi2(f)),
            ("negation", psi3(f)),
        ):
            if h1(build_graph(image)) != base:
                failures.append(f"homology changed under {name} on {f}")
        if f.q0 != 0 and f.upsilon <= 9 and index % surgery_stride == 0:
            trace = build_gf(f)
            welded = cancel_block(trace.graph, trace.ladder)
            dipoled = cancel_block_by_dipoles(trace.graph, trace.ladder)
            if h1(welded) != base or h1(dipoled) != base:
                failures.append(f"homology changed by block cancellation on {f}")
    return checked, failures, []


def _suite_minimality_agreement(bound: int):
    failures = []
    checked = 0
    for f in enumerate_canonical(bound):
        checked += 1
        if is_minimal(f) != descent_minimal(f):
            failures.append(f"minimality forms disagree on {f}")
        if is_root(f) != descent_root(f):
            failures.append(f"root forms disagree on {f}")
    return checked, failures, []


def _suite_trap_closure(bound: int):
    failures = []
    notes = []
    checked = 0
    for f in enumerate_canonical(bound):
        checked += 1
        witness = is_trap(f)
        if witness is not None:
            graph = explore(f, f.upsilon + 1, 10_000)
            if not graph.closed:
                failures.append(f"trap {f} did not close under exploration")
            for g in (f, witness.base):
                if g.q0 == 0:
                    continue
                again = is_trap(sigma(g))
                if again is None or (again.r, again.s) != (witness.r, witness.s):
                    failures.append(f"move changed the trap type of {g}")
        elif zero_q_count(f) <= 1:
            try:
                ascend_witness(f)
            except ValueError as err:
                failures.append(f"no growth witness for {f}: {err}")
        else:
            notes.append(f"guard excluded {f}: two vanishing shifts")
    return checked, failures, notes


def _suite_genus_embedding(bound: int):
    failures = []
    checked = 0
    for f in enumerate_admissible(bound):
        checked += 1
        if embedding_euler(build_graph(f), (0, 2, 1, 3)) != -2:
            failures.append(f"embedding characteristic is not -2 on {f}")
    return checked, failures, []


def _suite_canonical_uniqueness(bound: int):
    failures = []
    checked = 0
    seen = set()
    for f in enumerate_admissible(bound):
        key = min(h_orbit(f))
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        candidates = canonical_candidates(f)
        if len(candidates) != 1:
            failures.append(
                f"filter left {len(candidates)} candidates on the orbit of {key}"
            )
    return checked, failures, []


def _suite_catalogue_smoke(bound: int):
    expected = [
        SixTuple(1, 1, 1, 0, 0, 0),
        SixTuple(1, 1, 3, 0, 0, 2),
        SixTuple(1, 1, 3, 2, 0, 2),
    ]
    got = list(enumerate_canonical(bound))
    failures = [] if got == expected else [f"catalogue at {bound} was {got}"]
    return len(got), failures, []


SUITES = {
    "laws": (_suite_laws, 13),
    "sigma-constructive": (_suite_sigma_constructive, 11),
    "homology-invariance": (_suite_homology_invariance, 13),
    "minimality-agreement": (_suite_minimality_agreement, 15),
    "trap-closure": (_suite_trap_closure, 13),
    "genus-embedding": (_suite_genus_embedding, 13),
    "canonical-uniqueness": (_suite_canonical_uniqueness, 13),
    "catalogue-smoke": (_suite_catalogue_smoke, 5),
}


def run_suite(name: str) -> SuiteReport:
    """Run one named verification batch at its documented bound."""
    try:
        body, bound = SUITES[name]
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; choose one of: {known}") from None
    start = time.perf_counter()
    checked, failures, notes = body(bound)
    return SuiteReport(
        name, checked, tuple(failures), tuple(notes), time.perf_counter() - start
    )
