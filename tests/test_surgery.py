"""Constructive verification of the move by explicit graph surgery."""

import pytest

import twosym.graphs
import twosym.surgery
from twosym import (
    COLOURS,
    SWAP_01,
    ColouredGraph,
    build_gf,
    build_graph,
    is_gem,
    parse_tuple,
    reorientation_involution,
    sigma,
    table_row,
    verify_sigma_constructively,
)
from twosym.graphs import _cp_search, _signatures


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


def test_strip_invariants(admissible_upto):
    """The two half-cycle strips partition the first cycle and the
    measured counts reproduce the closed-form row everywhere."""
    for f in admissible_upto(11):
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


def test_verification_sweep(admissible_upto):
    """Every admissible small tuple with a genuine move verifies."""
    checked = 0
    for f in admissible_upto(9):
        if f.q0 == 0:
            continue
        report = verify_sigma_constructively(f)
        assert report.ok, (f, report.failures)
        checked += 1
    assert checked > 100


def test_two_searches_per_verified_tuple(monkeypatch, admissible_upto):
    """Only the two cross blocks are searched against the moved graph;
    every other match is checked against a map the surgery provides."""
    searches = []

    def record(g1, g2, sig2):
        searches.append((g1, g2))
        return _cp_search(g1, g2, sig2)

    monkeypatch.setattr(twosym.surgery, "_cp_search", record)
    moving = 0
    for f in admissible_upto(11):
        if f.q0 == 0:
            continue
        before = len(searches)
        report = verify_sigma_constructively(f)
        assert report.ok, (f, report.failures)
        assert len(searches) - before == 2, f
        moving += 1
    assert moving == 592
    assert len(searches) == 1184


def test_three_signature_passes_per_verified_tuple(monkeypatch, admissible_upto):
    """The moved graph's signatures are computed once per tuple and
    shared by both cross-block searches, each of which computes its own
    cancelled graph's."""
    passes = []

    def record(g):
        passes.append(g)
        return _signatures(g)

    monkeypatch.setattr(twosym.graphs, "_signatures", record)
    monkeypatch.setattr(twosym.surgery, "_signatures", record)
    for f in admissible_upto(11):
        if f.q0 == 0:
            continue
        before = len(passes)
        report = verify_sigma_constructively(f)
        assert report.ok, (f, report.failures)
        assert len(passes) - before == 3, f
        assert passes[before] == build_graph(sigma(f))


LADDER_FAILURE = "cancelling the inserted ladder does not restore the base"
MATE_FAILURE = "cancelling the mate ladder does not yield the reversed base copy"
PARTNER_FAILURE = "matches no reorientation of the move"


@pytest.mark.parametrize(
    "text,partner_name",
    [("(1,3,3;2,2,2)", "mate cross block"), ("(3,1,3;2,2,2)", "cross block")],
)
def test_broken_half_exchange_fails_the_certificates(monkeypatch, text, partner_name):
    """The mate ladder and the partner cross block are matched through
    the half exchange; with two of its images swapped, both fail instead
    of falling back to a search."""
    real = twosym.surgery.reorientation_involution

    def broken(trace):
        phi = real(trace)
        phi[0], phi[1] = phi[1], phi[0]
        return phi

    monkeypatch.setattr(twosym.surgery, "reorientation_involution", broken)
    report = verify_sigma_constructively(parse_tuple(text))
    assert not report.ok
    assert MATE_FAILURE in report.failures
    assert f"{partner_name} {PARTNER_FAILURE}" in report.failures


def corrupt_one_weld(g, block, h):
    """h with one weld of a colour other than the rung colour moved onto
    another edge of that colour: still a valid graph, but not the
    cancellation of block."""
    kept = [v for v in range(g.n) if v not in block.vertices]
    rows = [list(r) for r in h.involutions]
    c, u = next(
        (c, i)
        for c in COLOURS
        if c != block.rung_colour
        for i in range(h.n)
        if g.involutions[c][kept[i]] != kept[rows[c][i]]
    )
    row = rows[c]
    w = row[u]
    x = next(v for v in range(h.n) if v not in (u, w))
    y = row[x]
    row[u], row[y], row[x], row[w] = y, u, w, x
    return ColouredGraph(tuple(tuple(r) for r in rows), h.labels)


@pytest.mark.parametrize(
    "text,block,failure",
    [
        ("(1,3,3;2,2,2)", "ladder", LADDER_FAILURE),
        ("(3,1,3;2,2,2)", "ladder", LADDER_FAILURE),
        ("(2,2,2;3,1,1)", "ladder", LADDER_FAILURE),
        ("(1,3,3;2,2,2)", "ladder_mate", MATE_FAILURE),
        ("(3,1,3;2,2,2)", "ladder_mate", MATE_FAILURE),
        # the partners that match under SWAP_01, through the half exchange
        ("(1,3,3;2,2,2)", "theta_mate", f"mate cross block {PARTNER_FAILURE}"),
        ("(3,1,3;2,2,2)", "theta", f"cross block {PARTNER_FAILURE}"),
    ],
)
def test_corrupted_weld_fails_its_check(monkeypatch, text, block, failure):
    """A wrong weld in one block's cancellation fails that block's
    check, and only that one, including the checks made against a map
    the surgery provides rather than by search."""
    f = parse_tuple(text)
    target = getattr(build_gf(f), block)
    real = twosym.surgery.cancel_block

    def cancel(g, b):
        h = real(g, b)
        return corrupt_one_weld(g, b, h) if b == target else h

    monkeypatch.setattr(twosym.surgery, "cancel_block", cancel)
    assert verify_sigma_constructively(f).failures == (failure,)


def test_verification_of_identity_case_fails_loudly():
    with pytest.raises(ValueError):
        verify_sigma_constructively(parse_tuple("(1,1,3;0,0,2)"))


def test_swap_constant():
    assert SWAP_01 == (1, 0, 2, 3)
