"""Span tracing of the twosym layers from outside the library.

``Tracer.install`` rebinds each traced public function to a wrapper that
records a span around the call.  Callers import by name, so the wrapper
replaces the original in every ``twosym`` module namespace that holds
it; methods and ``__post_init__`` hooks are replaced on their class.  A
span on a generator covers the time spent inside each ``next()``.
A traced function or hook the library no longer has is reported, and
the traced run stops, rather than reading 0.

Spans are aggregated in memory as they close, per name: calls, total
seconds and seconds spent in child spans, so self time is total minus
child time.  Keeping one record per span instead would cost far more
memory than the catalogue workload itself uses, since it makes millions
of calls.  ``report`` turns the table into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

LAYERS = (
    "tuples", "graphs", "moves", "orbits", "homology", "surgery", "catalogue", "cli"
)

# span name -> (defining module, attribute path); the name's first part
# is the layer the span belongs to.
SPANS = {
    "tuples.admissibility": ("twosym.tuples", "admissibility"),
    "tuples.build_graph": ("twosym.tuples", "build_graph"),
    "graphs.cp_isomorphic": ("twosym.graphs", "cp_isomorphic"),
    "graphs.coloured_graph": ("twosym.graphs", "ColouredGraph.__post_init__"),
    "graphs.residues": ("twosym.graphs", "ColouredGraph.residues"),
    "graphs.cancel_block": ("twosym.graphs", "cancel_block"),
    "graphs.cancel_block_by_dipoles": ("twosym.graphs", "cancel_block_by_dipoles"),
    "graphs.embedding_euler": ("twosym.graphs", "embedding_euler"),
    "moves.h_orbit": ("twosym.moves", "h_orbit"),
    "moves.canonical": ("twosym.moves", "canonical"),
    "moves.sigma": ("twosym.moves", "sigma"),
    "moves.sigma_neighbors": ("twosym.moves", "sigma_neighbors"),
    "orbits.is_trap": ("twosym.orbits", "is_trap"),
    "orbits.is_minimal": ("twosym.orbits", "is_minimal"),
    "orbits.is_root": ("twosym.orbits", "is_root"),
    "orbits.minimize": ("twosym.orbits", "minimize"),
    "orbits.explore": ("twosym.orbits", "explore"),
    "homology.h1": ("twosym.homology", "h1"),
    "homology.h1_presentation": ("twosym.homology", "h1_presentation"),
    "homology.smith_normal_form": ("twosym.homology", "smith_normal_form"),
    "surgery.build_gf": ("twosym.surgery", "build_gf"),
    "surgery.reorientation_involution": ("twosym.surgery", "reorientation_involution"),
    "surgery.verify_sigma_constructively": (
        "twosym.surgery",
        "verify_sigma_constructively",
    ),
    "catalogue.enumerate_admissible": ("twosym.catalogue", "enumerate_admissible"),
    "catalogue.enumerate_canonical": ("twosym.catalogue", "enumerate_canonical"),
    "catalogue.classify_record": ("twosym.catalogue", "classify_record"),
    "catalogue.assign_orbit_ids": ("twosym.catalogue", "assign_orbit_ids"),
    "catalogue.records_to_tsv": ("twosym.catalogue", "records_to_tsv"),
    "catalogue.build_catalogue": ("twosym.catalogue", "build_catalogue"),
    "cli.main": ("twosym.cli", "main"),
}
GENERATORS = {"catalogue.enumerate_admissible", "catalogue.enumerate_canonical"}
SUITE_SPAN = "catalogue.run_suite"
# spans on functions memoised with functools.lru_cache; their misses
# equal their calls once the caches are gone
CACHED = ("tuples.admissibility", "tuples.build_graph")
# what a span's call count is called when "calls" is not the natural word
CALLS = {"graphs.coloured_graph": "constructions"}


def _lookup(module: str, path: str):
    """(owner, attribute, value) for a dotted attribute of a module, or
    None when the library no longer has it."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _rebind(original, replacement) -> None:
    """Replace original by name in every twosym module namespace."""
    for name, module in list(sys.modules.items()):
        if name != "twosym" and not name.startswith("twosym."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span table; one per workload process."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, seconds in child spans]
        self.spans: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counts = {
            "tuples.sixtuple.constructions": 0,
            "tuples.scan.candidates": 0,
            "tuples.scan.rejected": 0,
            "tuples.scan.admissible": 0,
            "graphs.cp_isomorphic.anchors": 0,
            "moves.canonical.ambiguities": 0,
            "orbits.explore.nodes": 0,
            "homology.smith_normal_form.cells": 0,
            "catalogue.run_suite.checks": 0,
        }
        self.suites: dict[str, list] = {}
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []

    # -- span bookkeeping ------------------------------------------------

    def _call(self, stat: list, fn, args, kwargs, calls: int = 1):
        stack = self._stack
        stack.append(stat)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            stat[0] += calls
            stat[1] += elapsed
            if stack:
                stack[-1][2] += elapsed

    def _span(self, name: str, fn):
        stat = self.spans[name]
        call = self._call
        after = {
            "graphs.cp_isomorphic": self._count_anchors,
            "orbits.explore": self._count_nodes,
            "homology.smith_normal_form": self._count_cells,
        }.get(name)

        def wrapper(*args, **kwargs):
            result = call(stat, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _generator_span(self, name: str, fn):
        stat = self.spans[name]
        counts = self.counts
        scan = name == "catalogue.enumerate_admissible"

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            stat[0] += 1  # one call per generator, not per next()
            while True:
                try:
                    item = self._call(stat, next, (items,), {}, calls=0)
                except StopIteration:
                    return
                if scan:
                    counts["tuples.scan.admissible"] += 1
                yield item

        return wrapper

    def _suite_span(self, fn):
        def wrapper(name, *args, **kwargs):
            stat = self.suites.setdefault(name, [0, 0.0, 0.0])
            report = self._call(stat, fn, (name, *args), kwargs)
            self.counts["catalogue.run_suite.checks"] += report.checked
            return report

        return wrapper

    def _count_anchors(self, args, result) -> None:
        # anchors tried: the image of vertex 0 is the last anchor
        self.counts["graphs.cp_isomorphic.anchors"] += (
            args[0].n if result is None else result[0] + 1 if result else 0
        )

    def _count_nodes(self, args, result) -> None:
        self.counts["orbits.explore.nodes"] += len(result.nodes)

    def _count_cells(self, args, result) -> None:
        matrix = args[0]
        self.counts["homology.smith_normal_form.cells"] += len(matrix) * (
            len(matrix[0]) if matrix else 0
        )

    # -- installation ----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced function and counter hook; return the
        targets the library no longer has, whose metrics would read 0
        and whose time would land in the caller's layer."""
        missing = []
        for name, (module, path) in SPANS.items():
            found = _lookup(module, path)
            if found is None:
                missing.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            self.originals[name] = original
            wrap = self._generator_span if name in GENERATORS else self._span
            replacement = wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, replacement)
            else:
                _rebind(original, replacement)
        found = _lookup("twosym.catalogue", "run_suite")
        if found:
            for suite in sys.modules["twosym.catalogue"].SUITES:
                self.suites[suite] = [0, 0.0, 0.0]
            _rebind(found[2], self._suite_span(found[2]))
        else:
            missing.append("twosym.catalogue.run_suite")
        return missing + self._install_counters()

    def _install_counters(self) -> list[str]:
        counts = self.counts
        missing = []
        found = _lookup("twosym.tuples", "SixTuple.__post_init__")
        if not found:
            missing.append("twosym.tuples.SixTuple.__post_init__")
        else:
            owner, attr, original = found

            def post_init(f):
                counts["tuples.sixtuple.constructions"] += 1
                original(f)

            setattr(owner, attr, post_init)
        found = _lookup("twosym.tuples", "is_admissible")
        if not found:
            missing.append("twosym.tuples.is_admissible")
        else:
            original_test = found[2]
            scan_stat = self.spans["catalogue.enumerate_admissible"]
            stack = self._stack

            def is_admissible(f):
                ok = original_test(f)
                if stack and stack[-1] is scan_stat:
                    counts["tuples.scan.candidates"] += 1
                    if not ok:
                        counts["tuples.scan.rejected"] += 1
                return ok

            _rebind(original_test, is_admissible)
        # CanonicalAmbiguity is the only target allowed to go missing: a
        # complete canonical filter raises none, and the count reads 0.
        moves = sys.modules["twosym.moves"]
        ambiguity = getattr(moves, "CanonicalAmbiguity", None)
        real_warnings = getattr(moves, "warnings", None)
        if ambiguity is not None and real_warnings is None:
            missing.append("twosym.moves.warnings")
        elif ambiguity is not None:

            def warn(message, category=None, stacklevel=1, source=None):
                if category is ambiguity:
                    counts["moves.canonical.ambiguities"] += 1
                real_warnings.warn(message, category, stacklevel + 1, source)

            moves.warnings = types.SimpleNamespace(warn=warn)
        return missing

    # -- report ----------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-layer metrics: span calls and self seconds, the counters,
        cache misses and each layer's summed self time."""
        out: dict[str, float] = dict(self.counts)
        for name, (calls, total, child) in self.spans.items():
            out[f"{name}.{CALLS.get(name, 'calls')}"] = calls
            out[f"{name}.s"] = total - child
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            out[f"{name}.misses"] = info().misses if info else out[f"{name}.calls"]
        for suite, (_, total, child) in self.suites.items():
            out[f"{SUITE_SPAN}.{suite}.s"] = total - child
        spans = [*self.spans.items()]
        spans += [(SUITE_SPAN, stat) for stat in self.suites.values()]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                total - child
                for name, (_, total, child) in spans
                if name.startswith(layer + ".")
            )
        return out
