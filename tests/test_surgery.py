"""Constructive verification of the move by explicit graph surgery."""

import pytest

from twosym import (
    SWAP_01,
    build_gf,
    build_graph,
    is_gem,
    parse_tuple,
    reorientation_involution,
    sigma,
    table_row,
    verify_sigma_constructively,
)
from twosym.catalogue import enumerate_admissible


def test_table_rows():
    assert table_row(parse_tuple("(1,3,3;2,2,2)")) == (1, 0, 1, 0, 1)
    assert table_row(parse_tuple("(2,2,2;3,1,1)")) == (1, 1, 1, 0, 0)
    assert table_row(parse_tuple("(3,1,3;2,2,2)")) == (2, 0, 0, 1, 1)
    assert table_row(parse_tuple("(1,1,3;2,0,2)")) == (1, 0, 1, 0, 1)


def test_table_row_rejects_identity_case():
    with pytest.raises(ValueError):
        table_row(parse_tuple("(1,1,3;0,0,2)"))


def test_build_gf_shapes():
    """Splitting along the first cycle adds one dipole per ladder rung."""
    expected = {
        "(1,3,3;2,2,2)": (20, 3, 1),
        "(2,2,2;3,1,1)": (16, 2, 1),
        "(3,1,3;2,2,2)": (16, 1, 2),
        "(1,1,3;2,0,2)": (12, 1, 1),
    }
    for text, (n, ladder_len, theta_len) in expected.items():
        trace = build_gf(parse_tuple(text))
        assert trace.base_graph == build_graph(parse_tuple(text))
        assert trace.graph.n == n
        assert is_gem(trace.graph)
        assert trace.ladder.length == ladder_len
        assert trace.ladder_mate.length == ladder_len
        assert trace.theta.length == theta_len
        assert trace.theta_mate.length == theta_len
        assert trace.measured == table_row(parse_tuple(text))


def test_build_gf_rejects_identity_case():
    with pytest.raises(ValueError):
        build_gf(parse_tuple("(1,1,3;0,0,2)"))


def test_strip_invariants():
    """The two half-cycle strips partition the first cycle and the
    measured counts reproduce the closed-form row everywhere."""
    for f in enumerate_admissible(11):
        if f.q0 == 0:
            continue
        trace = build_gf(f)
        # the split cycle and its inserted rung ends, two per rung
        assert (
            len(trace.c0_near) + len(trace.c0_far)
            == f.two_l(0) + 2 * trace.ladder.length
        )
        assert trace.measured == table_row(f)


def test_reorientation_involution_is_a_colour_swapping_automorphism():
    for text in ["(1,3,3;2,2,2)", "(2,2,2;3,1,1)", "(1,1,3;2,0,2)"]:
        trace = build_gf(parse_tuple(text))
        g = trace.graph
        phi = reorientation_involution(trace)
        assert sorted(phi) == list(range(g.n))
        assert all(phi[phi[v]] == v for v in range(g.n))
        swap = {0: 1, 1: 0, 2: 2, 3: 3}
        for c in range(4):
            for v in range(g.n):
                assert phi[g.involutions[c][v]] == g.involutions[swap[c]][phi[v]]


@pytest.mark.parametrize(
    "src,dst,block,swap",
    [
        ("(1,3,3;2,2,2)", "(3,1,5;4,2,2)", "cross", (1, 0, 2, 3)),
        ("(2,2,2;3,1,1)", "(3,1,3;2,2,2)", "cross", (0, 1, 2, 3)),
        ("(3,1,3;2,2,2)", "(2,2,2;3,1,1)", "cross mate", (1, 0, 2, 3)),
        ("(1,1,3;2,0,2)", "(1,1,3;2,0,2)", "cross", (0, 1, 2, 3)),
        ("(3,1,5;4,2,2)", "(1,3,3;2,2,2)", "cross", (0, 1, 2, 3)),
    ],
)
def test_worked_verifications(src, dst, block, swap):
    f = parse_tuple(src)
    report = verify_sigma_constructively(f)
    assert report.ok, report.failures
    assert report.expected == parse_tuple(dst) == sigma(f)
    assert report.measured_row == report.expected_row
    assert report.exact_block == block
    assert report.orientation_swap == swap


def test_verification_sweep():
    """Every admissible small tuple with a genuine move verifies."""
    checked = 0
    for f in enumerate_admissible(9):
        if f.q0 == 0:
            continue
        report = verify_sigma_constructively(f)
        assert report.ok, (f, report.failures)
        checked += 1
    assert checked > 100


def test_verification_of_identity_case_fails_loudly():
    with pytest.raises(ValueError):
        verify_sigma_constructively(parse_tuple("(1,1,3;0,0,2)"))


def test_swap_constant():
    assert SWAP_01 == (1, 0, 2, 3)
