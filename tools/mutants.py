"""Recorded mutants of the twosym library and the tests that kill them.

Each mutant is a small textual edit of one file under src/twosym that
removes or weakens one check.  The script copies src/, tests/ and
pyproject.toml to a temporary directory, applies one mutant at a time
to a fresh copy, and runs the one test named to kill it.  A mutant is
killed when that test fails.  Before the mutants, every named test must
pass on the unmutated copy, or the script stops.

    python tools/mutants.py            # all mutants
    python tools/mutants.py -k sigma   # mutants whose name contains "sigma"

It prints one line per mutant and the kill rate, and exits 1 when a
mutant survives or its edit leaves a library that does not import.
It uses only the standard library and the installed pytest; nothing in
the working tree is modified.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REJECTS = "tests/test_moves.py::test_sigma_neighbors_rejects_inadmissible_tuples"
ENTRY_ONCE = "tests/test_moves.py::test_entry_points_prove_their_input_once"
ONCE = "tests/test_catalogue.py::test_catalogue_proves_each_scanned_candidate_once"
SUITE_ONCE = (
    "tests/test_catalogue.py::test_suites_prove_each_scanned_candidate_once[{}]"
)
TRACE_ONCE = "tests/test_cli.py::test_sigma_trace_proves_its_tuple_once"
LAWS = "tests/test_catalogue.py::test_laws_suite_reports_an_inadmissible_move_image"
H1_REJECTS = "tests/test_homology.py::test_h1_of_tuple_rejects_inadmissible_tuples"
H1_CELL = "tests/test_catalogue.py::test_tsv_rejects_a_wrong_h1_cell"
GUARD = "    _require_canonical(f, \"{who}\")\n    require_admissible(f)\n"
IMAGE = "        return g._mark() if self._proved else g\n"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # (old, new), each old occurring once
    killer: str  # pytest node id expected to fail on the mutant


def _drop(text: str) -> tuple[tuple[str, str], ...]:
    """The edit that deletes the require_admissible line from text."""
    return ((text, text.replace("    require_admissible(f)\n", "")),)


MUTANTS = (
    # an entry point that skips its proof answers on inadmissible input,
    # or proves the same tuple again through the images it goes on to use
    Mutant(
        "sigma skips its proof",
        "src/twosym/moves.py",
        _drop("    require_admissible(f)\n    if f.q0 == 0:\n        return f\n"),
        REJECTS,
    ),
    Mutant(
        "sigma_neighbors skips its proof",
        "src/twosym/moves.py",
        (("    require_admissible(c)\n", ""),),
        REJECTS,
    ),
    Mutant(
        "delta skips its proof",
        "src/twosym/moves.py",
        _drop("    require_admissible(f)\n    if f.q0 == 0:\n        return 0\n"),
        REJECTS,
    ),
    Mutant(
        "is_trap skips its proof",
        "src/twosym/orbits.py",
        _drop("    require_admissible(f)\n    for g in sorted(_orbit_fields"),
        REJECTS,
    ),
    Mutant(
        "descent_minimal skips its proof",
        "src/twosym/orbits.py",
        _drop("    require_admissible(f)\n    return all(delta(g)"),
        ENTRY_ONCE,
    ),
    Mutant(
        "is_minimal skips its proof",
        "src/twosym/orbits.py",
        _drop(GUARD.format(who="is_minimal")),
        REJECTS,
    ),
    Mutant(
        "is_root skips is_minimal's checks",
        "src/twosym/orbits.py",
        (("    if not is_minimal(f):\n        return False\n", ""),),
        REJECTS,
    ),
    Mutant(
        "ascend_witness skips its proof",
        "src/twosym/orbits.py",
        _drop(GUARD.format(who="ascend_witness")),
        REJECTS,
    ),
    Mutant(
        "minimize skips its proof",
        "src/twosym/orbits.py",
        _drop("    require_admissible(f)\n    f = canonical(f)\n"),
        ENTRY_ONCE,
    ),
    Mutant(
        "descent_root skips its proof",
        "src/twosym/orbits.py",
        _drop("    require_admissible(f)\n    base = canonical(f)\n"),
        ENTRY_ONCE,
    ),
    Mutant(
        "explore skips its proof",
        "src/twosym/orbits.py",
        _drop("    require_admissible(f)\n    start = _canonical_fields(f.h, f.q)\n"),
        REJECTS,
    ),
    Mutant(
        "build_gf skips its proof",
        "src/twosym/surgery.py",
        _drop("    require_admissible(f)\n    if f.q0 == 0:\n"),
        REJECTS,
    ),
    Mutant(
        "verify_sigma_constructively takes the move unproved",
        "src/twosym/surgery.py",
        (
            ("from .moves import _rebuild, _strips, sigma",
             "from .moves import _move, _rebuild, _strips, sigma"),
            ("    expected = sigma(f)\n",
             "    expected = f if f.q0 == 0 else"
             " SixTuple.reduce(*_move(*f.h, *f.q))\n"),
        ),
        REJECTS,
    ),
    # the proof flag: each write, the early return, and inheritance
    Mutant(
        "require_admissible does not record its proof",
        "src/twosym/tuples.py",
        (("    f._mark()\n", ""),),
        TRACE_ONCE,
    ),
    Mutant(
        "require_admissible proves a proved tuple again",
        "src/twosym/tuples.py",
        (("    if f._proved:\n        return\n", ""),),
        TRACE_ONCE,
    ),
    Mutant(
        "the scan does not mark what it yields",
        "src/twosym/catalogue.py",
        (("            yield f._mark()\n", "            yield f\n"),),
        SUITE_ONCE.format("sigma-constructive-1155"),
    ),
    Mutant(
        "the H1 walk does not mark what it decided",
        "src/twosym/homology.py",
        (("        f._mark()  # the walk has decided admissibility\n",
          "        pass\n"),),
        ONCE,
    ),
    Mutant(
        "images do not inherit the proof",
        "src/twosym/tuples.py",
        ((IMAGE, "        return g\n"),),
        SUITE_ONCE.format("minimality-agreement-715"),
    ),
    Mutant(
        "images are marked whatever their source",
        "src/twosym/tuples.py",
        ((IMAGE, "        return g._mark()\n"),),
        REJECTS,
    ),
    # the H1 walk, the catalogue and the laws suite
    Mutant(
        "the H1 walk does not raise on an inadmissible tuple",
        "src/twosym/homology.py",
        (("        require_admissible(f)  # raises, naming the failed condition\n",
          "        pass\n"),),
        H1_REJECTS,
    ),
    Mutant(
        "classify_record reads H1 off the graph, which proves nothing",
        "src/twosym/catalogue.py",
        (
            ("    group = h1_of_tuple(f)\n",
             "    from .tuples import build_graph\n    group = h1(build_graph(f))\n"),
        ),
        ONCE,
    ),
    Mutant(
        "classify_record proves before the H1 walk",
        "src/twosym/catalogue.py",
        (("    group = h1_of_tuple(f)\n",
          "    from .tuples import require_admissible\n"
          "    require_admissible(f)\n    group = h1_of_tuple(f)\n"),),
        ONCE,
    ),
    Mutant(
        "records_from_tsv does not check the h1 column",
        "src/twosym/catalogue.py",
        (("        if parse_signature(cells[6]) != record.h1:\n",
          "        if False:\n"),),
        H1_CELL,
    ),
    Mutant(
        "assign_orbit_ids proves each tuple again",
        "src/twosym/catalogue.py",
        (("        for nb in _neighbour_fields(_canonical_fields(k[:3], k[3:])):\n",
          "        for nb in map(lambda g: (*g.h, *g.q),"
          " sigma_neighbors(SixTuple._trusted(k))):\n"),
         ("    sigma,\n)", "    sigma,\n    sigma_neighbors,\n)")),
        ONCE,
    ),
    Mutant(
        "the laws suite does not test the move image",
        "src/twosym/catalogue.py",
        (("        if not is_admissible(moved):\n"
          "            failures.append(f\"move image {moved} of {f} "
          "is not admissible\")\n"
          "            continue\n", ""),),
        LAWS,
    ),
)


def _copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, dest / name,
            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
        )
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_test(tree: Path, node: str) -> bool:
    """Whether the test passes in the given tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode == 0


def _imports(tree: Path) -> bool:
    """Whether the mutated library still imports, so that a kill is the
    test's doing and not a broken edit's."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import twosym.cli"], env=env, capture_output=True
    )
    return proc.returncode == 0


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise SystemExit(
                f"mutant {mutant.name!r}: an edit does not match once in {mutant.path}"
            )
        text = text.replace(old, new)
    path.write_text(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-k", default="", help="run only the mutants whose name contains this"
    )
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m.name]
    with tempfile.TemporaryDirectory(prefix="twosym-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        for killer in sorted({m.killer for m in chosen}):
            if not _run_test(clean, killer):
                print(f"{killer} fails without any mutant", file=sys.stderr)
                return 2
        killed = 0
        for i, mutant in enumerate(chosen):
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            _apply(tree, mutant)
            dead = not _run_test(tree, mutant.killer)
            verdict = "killed  " if dead else "SURVIVED"
            if not _imports(tree):
                verdict, dead = "BROKEN  ", False  # killed by a syntax error
            killed += dead
            print(f"{verdict} {mutant.name}  [{mutant.killer}]")
            shutil.rmtree(tree)
    print(f"kill rate: {killed}/{len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
