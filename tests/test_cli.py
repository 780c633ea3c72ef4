"""End-to-end checks of the command-line interface and its exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twosym
from twosym.cli import main, tuple_from_args
from twosym import parse_tuple


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tuple_from_args_forms():
    f = parse_tuple("(1,3,3;2,2,2)")
    assert tuple_from_args(["(1,3,3;2,2,2)"]) == f
    assert tuple_from_args(["1", "3", "3", "2", "2", "2"]) == f
    with pytest.raises(ValueError):
        tuple_from_args(["1", "3"])


def test_check_admissible(capsys):
    code, out, _ = run(capsys, "check", "(1,3,3;2,2,2)")
    assert code == 0
    assert out.strip() == "admissible"


def test_check_inadmissible_exits_2(capsys):
    code, out, _ = run(capsys, "check", "3", "3", "3", "0", "0", "2")
    assert code == 2
    assert "not admissible" in out


def test_check_invalid_tuple_exits_2(capsys):
    code, _, err = run(capsys, "check", "(-1,3,3;2,2,2)")
    assert code == 2
    assert err.startswith("error:")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "check")[0] == 1
    assert run(capsys, "psi", "4", "(1,3,3;2,2,2)")[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "sigma", "--help")[0] == 0


def test_sigma(capsys):
    code, out, _ = run(capsys, "sigma", "(1,3,3;2,2,2)")
    assert code == 0
    assert out.strip() == "(3,1,5;4,2,2)"


def test_sigma_trace(capsys):
    code, out, _ = run(capsys, "sigma", "(1,3,3;2,2,2)", "--trace")
    assert code == 0
    assert "(3,1,5;4,2,2)" in out
    assert "complexity: 7 -> 9 (delta 2)" in out
    assert "exact cancellation" in out


def test_sigma_trace_identity_case(capsys):
    code, out, _ = run(capsys, "sigma", "(1,1,3;0,0,2)", "--trace")
    assert code == 0
    assert "identity move" in out


def test_canonical_and_psi(capsys):
    assert run(capsys, "canonical", "(2,2,2;3,1,1)")[1].strip() == "(2,2,2;1,1,3)"
    assert run(capsys, "psi", "1", "(1,3,3;2,2,2)")[1].strip() == "(3,3,1;2,2,2)"
    assert run(capsys, "psi", "3", "(1,3,3;2,2,2)")[1].strip() == "(1,3,3;2,2,4)"


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "(1,1,1;0,0,0)")
    assert code == 0
    assert out.startswith("graph gem_3 {")
    assert out.rstrip().endswith("}")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "(1,1,3;2,0,2)")
    assert code == 0
    assert "trap: type (1,3)" in out
    assert "minimal: yes" in out
    assert "root: yes" in out
    assert "h1: Z" in out


def test_classify_canonicalizes(capsys):
    code, out, _ = run(capsys, "classify", "(3,1,3;2,2,2)")
    assert code == 0
    assert "canonical: (1,3,3;2,2,2)" in out
    assert "minimal: no" in out


def test_minimize(capsys):
    assert run(capsys, "minimize", "(1,3,3;2,2,2)")[1].strip() == "(2,2,2;1,1,3)"


def test_orbit_tsv(capsys):
    code, out, err = run(
        capsys, "orbit", "(1,3,3;2,2,2)", "--max-complexity", "9"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind\ta\tb\tupsilon\tfrontier"
    kinds = [line.split("\t")[0] for line in lines[1:]]
    assert kinds.count("node") == 5
    assert kinds.count("edge") == 4
    assert "5 nodes, 4 edges, bounded" in err


def test_orbit_dot_closed(capsys):
    code, out, err = run(
        capsys, "orbit", "(1,1,3;2,0,2)", "--max-complexity", "6",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph orbit {")
    assert "closed" in err


def test_catalogue_stdout_and_file(tmp_path, capsys):
    code, out, err = run(capsys, "catalogue", "--max-complexity", "5")
    assert code == 0
    assert out.splitlines()[0].startswith("tuple\t")
    assert len(out.strip().splitlines()) == 4
    assert "3 canonical tuples" in err

    target = tmp_path / "cat.tsv"
    code, out2, _ = run(
        capsys, "catalogue", "--max-complexity", "5", "--out", str(target)
    )
    assert code == 0
    assert out2 == ""
    assert target.read_text() == out


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "catalogue-smoke")
    assert code == 0
    assert "0 failures" in out


def test_verify_failure_exits_3(capsys, monkeypatch):
    import twosym.cli as cli
    from twosym.catalogue import SuiteReport

    def broken(name):
        return SuiteReport(name, 1, ("boom",), (), 0.0)

    monkeypatch.setattr(cli, "run_suite", broken)
    code, out, _ = run(capsys, "verify", "laws")
    assert code == 3
    assert "boom" in out


def test_verify_under_optimised_python():
    """The library's correctness checks raise instead of asserting, so a
    suite still runs them under python -O."""
    src = str(Path(twosym.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "twosym.cli", "verify", "trap-closure"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failures" in proc.stdout
