"""Construction, validation, parsing and graph building for 6-tuples."""

import pytest

from twosym import (
    ConditionError,
    SixTuple,
    admissibility,
    build_graph,
    embedding_euler,
    h_orbit,
    is_admissible,
    is_contracted,
    is_gem,
    parse_tuple,
    rho_symmetry,
    zero_q_count,
)
from twosym.catalogue import enumerate_candidates
from twosym.tuples import embedding_euler_of_tuple, involution_arrays


def test_accessors():
    f = SixTuple(1, 3, 3, 2, 2, 2)
    assert f.h == (1, 3, 3)
    assert f.q == (2, 2, 2)
    assert (f.two_l(0), f.two_l(1), f.two_l(2)) == (4, 4, 6)
    assert f.upsilon == 7
    assert str(f) == "(1,3,3;2,2,2)"


def test_constructor_rejects_nonpositive_h():
    with pytest.raises(ConditionError) as err:
        SixTuple(0, 2, 2, 1, 1, 1)
    assert err.value.condition == "h positivity"
    with pytest.raises(ConditionError):
        SixTuple(-1, 3, 3, 2, 2, 2)


def test_constructor_rejects_mixed_h_parity():
    with pytest.raises(ConditionError) as err:
        SixTuple(1, 2, 3, 0, 0, 0)
    assert err.value.condition == "h parity"


def test_constructor_rejects_out_of_range_q():
    # two_l = (4, 4, 6) for h = (1, 3, 3)
    with pytest.raises(ConditionError) as err:
        SixTuple(1, 3, 3, 4, 2, 2)
    assert err.value.condition == "q range"
    with pytest.raises(ConditionError):
        SixTuple(1, 3, 3, -2, 2, 2)


def test_constructor_rejects_mixed_q_parity():
    with pytest.raises(ConditionError) as err:
        SixTuple(1, 3, 3, 1, 2, 2)
    assert err.value.condition == "q parity"


def test_reduce_wraps_shifts():
    assert SixTuple.reduce(1, 3, 3, 6, 2, 2) == SixTuple(1, 3, 3, 2, 2, 2)
    assert SixTuple.reduce(1, 3, 3, -2, 2, 8) == SixTuple(1, 3, 3, 2, 2, 2)


def test_parse_and_format():
    f = SixTuple(1, 3, 3, 2, 2, 2)
    assert parse_tuple("(1,3,3;2,2,2)") == f
    assert parse_tuple("1,3,3,2,2,2") == f
    assert parse_tuple(" ( 1, 3, 3 ; 2, 2, 2 ) ") == f
    assert parse_tuple(str(f)) == f


def test_parse_rejects_wrong_arity_and_junk():
    with pytest.raises(ValueError):
        parse_tuple("(1,3;2)")
    with pytest.raises(ValueError):
        parse_tuple("1,2,3,4,5,x")


def test_parse_is_strict_about_ranges():
    with pytest.raises(ConditionError):
        parse_tuple("(1,3,3;6,2,2)")  # q0 not reduced


@pytest.mark.parametrize(
    "text",
    ["(1,1,1;0,0,0)", "(1,3,3;2,2,2)", "(2,2,2;1,1,3)", "(1,1,3;2,0,2)"],
)
def test_admissible_examples(text):
    f = parse_tuple(text)
    assert is_admissible(f)
    assert admissibility(f).ok
    assert str(admissibility(f)) == "admissible"


@pytest.mark.parametrize("text", ["(3,3,3;0,0,2)", "(1,1,3;0,0,0)"])
def test_inadmissible_by_residue_count(text):
    """Valid tuples whose graphs carry five {2,3}-residues instead of three."""
    f = parse_tuple(text)
    report = admissibility(f)
    assert not report.ok
    assert report.residues_23 == 5
    assert any("residue" in msg for msg in report.failures)


def test_inadmissible_by_shift_parity():
    report = admissibility(SixTuple(2, 2, 2, 0, 0, 0))
    assert not report.ok
    assert sum("parity" in msg for msg in report.failures) == 3


def test_graph_shape():
    f = SixTuple(1, 3, 3, 2, 2, 2)
    g = build_graph(f)
    assert g.n == 2 * f.upsilon
    assert is_gem(g)
    assert is_contracted(g)
    assert g.bipartition() is not None  # orientable
    # labels enumerate the cycles C_i in order
    assert g.label(0) == (0, 0)
    assert g.vertex_of_label((1, 0)) == f.two_l(0)


def test_involution_arrays_follow_the_layout():
    """Colour 0 joins (i,2k)-(i,2k+1) and colour 1 joins (i,2k+1)-(i,2k+2)
    around each cycle, read through the vertex labels."""
    for f in enumerate_candidates(11):
        inv = involution_arrays(f)
        labels = build_graph(f).labels
        for v, (i, j) in enumerate(labels):
            m = f.two_l(i)
            assert labels[inv[0][v]] == (i, j + 1 if j % 2 == 0 else j - 1), f
            assert labels[inv[1][v]] == (i, (j + 1 if j % 2 else j - 1) % m), f


def test_embedding_euler_of_tuple_matches_the_graph():
    """The array face count against the graph's, on every scan candidate
    up to complexity 13: -2 on the admissible ones, and whatever the
    graph gives on the rest."""
    admissible = 0
    for f in enumerate_candidates(13):
        expected = embedding_euler(build_graph(f), (0, 2, 1, 3))
        assert embedding_euler_of_tuple(f) == expected, f
        admissible += is_admissible(f)
    assert admissible == 1953


def test_residue_count_matches_the_graph():
    """The array count behind admissibility against the graph's own
    residue partition, on every scan candidate up to complexity 15."""
    for f in enumerate_candidates(15):
        count = len(build_graph(f).residues((2, 3)))
        assert admissibility(f).residues_23 == count, f


def test_graph_residue_counts():
    f = SixTuple(1, 3, 3, 2, 2, 2)
    g = build_graph(f)
    assert len(g.residues((0, 1))) == 3  # the cycles C_0, C_1, C_2
    assert len(g.residues((2, 3))) == 3


def test_zero_q_count_is_orbit_invariant():
    for text in ["(1,1,3;0,0,2)", "(1,3,3;2,2,2)", "(1,1,3;2,0,2)"]:
        f = parse_tuple(text)
        counts = {zero_q_count(g) for g in h_orbit(f)}
        assert counts == {zero_q_count(f)}
    assert zero_q_count(parse_tuple("(1,1,3;0,0,2)")) == 2
    assert zero_q_count(parse_tuple("(1,1,1;0,0,0)")) == 3


@pytest.mark.parametrize(
    "text", ["(1,3,3;2,2,2)", "(2,2,2;1,1,3)", "(1,1,3;2,0,2)", "(1,1,5;0,0,2)"]
)
def test_shift_symmetry(text):
    """The shift by q is a colour-swapping automorphism of the graph."""
    checks = rho_symmetry(parse_tuple(text))
    assert all(checks.values()), checks
