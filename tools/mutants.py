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
ONCE = "tests/test_catalogue.py::test_catalogue_proves_each_scanned_candidate_once"
LAWS = "tests/test_catalogue.py::test_laws_suite_reports_an_inadmissible_move_image"
H1_REJECTS = "tests/test_homology.py::test_h1_of_tuple_rejects_inadmissible_tuples"
GUARD = "    _require_canonical(f, \"{who}\")\n    require_admissible(f)\n"


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
    Mutant(
        "sigma skips its proof",
        "src/twosym/moves.py",
        _drop("    require_admissible(f)\n    return _sigma(f)"),
        REJECTS,
    ),
    Mutant(
        "sigma_neighbors skips its proof",
        "src/twosym/moves.py",
        (("    require_admissible(SixTuple._trusted(base))\n", ""),),
        REJECTS,
    ),
    Mutant(
        "is_minimal skips its proof",
        "src/twosym/orbits.py",
        _drop(GUARD.format(who="is_minimal")),
        REJECTS,
    ),
    Mutant(
        "is_root skips its proof",
        "src/twosym/orbits.py",
        _drop(GUARD.format(who="is_root")),
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
        REJECTS,
    ),
    Mutant(
        "descent_root skips its proof",
        "src/twosym/orbits.py",
        _drop("    require_admissible(f)\n    base = canonical(f)\n"),
        REJECTS,
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
             "from .moves import _rebuild, _sigma, _strips, sigma"),
            ("    expected = sigma(f)\n", "    expected = _sigma(f)\n"),
        ),
        REJECTS,
    ),
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
        REJECTS,
    ),
    Mutant(
        "classify_record proves admissibility again",
        "src/twosym/catalogue.py",
        (("is_trap(f), _minimal(f), _root(f), group",
          "is_trap(f), is_minimal(f), is_root(f), group"),),
        ONCE,
    ),
    Mutant(
        "records_from_tsv skips the H1 walk",
        "src/twosym/catalogue.py",
        (("        if group != h1_of_tuple(f):  # the H1 walk proves f admissible\n",
          "        if False and group != h1_of_tuple(f):\n"),),
        REJECTS,
    ),
    Mutant(
        "assign_orbit_ids proves each tuple again",
        "src/twosym/catalogue.py",
        (("        for nb in _neighbour_fields(_canonical_fields(k[:3], k[3:])):\n",
          "        for nb in map(lambda g: (*g.h, *g.q),"
          " sigma_neighbors(SixTuple._trusted(k))):\n"),
         ("    _sigma,\n", "    _sigma,\n    sigma_neighbors,\n")),
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
