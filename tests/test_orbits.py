"""Traps, minimality, roots, ascent witnesses and orbit exploration."""

import pytest

from twosym import (
    OrbitGraph,
    TrapWitness,
    ascend_witness,
    delta,
    descent_minimal,
    descent_root,
    explore,
    is_minimal,
    is_root,
    is_trap,
    minimize,
    parse_tuple,
    psi1,
)
from twosym.catalogue import enumerate_canonical


def test_trap_witnesses():
    w = is_trap(parse_tuple("(1,1,3;2,0,2)"))
    assert w is not None
    assert (w.r, w.s, w.d) == (1, 3, 4)
    assert w.base == parse_tuple("(1,1,3;2,0,2)")
    assert w.T == frozenset({0, 2})

    w = is_trap(parse_tuple("(1,1,9;0,0,4)"))
    assert w is not None
    assert (w.r, w.s, w.d) == (1, 9, 2)
    assert w.T == frozenset({0, 2, 3, 4, 5, 6, 7, 8})

    w = is_trap(parse_tuple("(1,1,1;0,0,0)"))
    assert w is not None
    assert (w.r, w.s) == (1, 1)
    assert w.T == frozenset({0})

    assert is_trap(parse_tuple("(1,3,3;2,2,2)")) is None
    assert is_trap(parse_tuple("(2,2,2;1,1,3)")) is None


def test_trap_witness_is_self_certifying():
    with pytest.raises(ValueError):
        TrapWitness(1, 3, parse_tuple("(1,1,3;2,0,2)"), 2, frozenset({0, 2}))
    with pytest.raises(ValueError):
        TrapWitness(3, 1, parse_tuple("(1,1,3;2,0,2)"), 4, frozenset({0, 2}))
    with pytest.raises(ValueError):
        TrapWitness(1, 3, parse_tuple("(1,3,3;2,2,2)"), 4, frozenset({0, 2}))


def test_trap_detection_works_from_any_orbit_member():
    # the defining shape sits elsewhere on the orbit
    w = is_trap(parse_tuple("(3,1,1;0,2,0)"))
    assert w is not None and (w.r, w.s) == (1, 3)


def test_minimality_closed_form_and_examples():
    assert is_minimal(parse_tuple("(2,2,2;1,1,3)"))
    assert is_minimal(parse_tuple("(1,1,3;2,0,2)"))
    assert not is_minimal(parse_tuple("(1,3,3;2,2,2)"))
    f = parse_tuple("(2,2,2;1,1,3)")
    assert is_minimal(f) == descent_minimal(f)


def test_root_examples():
    assert is_root(parse_tuple("(2,2,2;1,1,3)"))
    assert is_root(parse_tuple("(1,1,3;2,0,2)"))
    assert not is_root(parse_tuple("(1,3,3;2,2,2)"))  # not even minimal
    f = parse_tuple("(2,2,2;1,1,3)")
    assert is_root(f) == descent_root(f)


def test_two_minimal_tuples_in_one_component_are_not_roots():
    """The moves connect these two minimal tuples, so neither is the
    unique minimum of its component."""
    a, b = parse_tuple("(1,1,5;0,0,2)"), parse_tuple("(1,1,5;2,0,2)")
    assert is_minimal(a) and is_minimal(b)
    assert not is_root(a) and not is_root(b)


def test_closed_forms_match_descent_small():
    for f in enumerate_canonical(13):
        assert is_minimal(f) == descent_minimal(f)
        assert is_root(f) == descent_root(f)


def test_predicates_reject_non_canonical_input():
    f = parse_tuple("(3,1,3;2,2,2)")
    with pytest.raises(ValueError):
        is_minimal(f)
    with pytest.raises(ValueError):
        is_root(f)


def test_minimize():
    assert minimize(parse_tuple("(1,3,3;2,2,2)")) == parse_tuple("(2,2,2;1,1,3)")
    assert minimize(parse_tuple("(2,2,2;1,1,3)")) == parse_tuple("(2,2,2;1,1,3)")
    # arbitrary orbit member descends to the same place
    assert minimize(parse_tuple("(3,1,3;2,2,2)")) == parse_tuple("(2,2,2;1,1,3)")


def test_minimize_lands_on_minimal_canonical():
    for f in enumerate_canonical(11):
        m = minimize(f)
        assert is_minimal(m)
        assert m.upsilon <= f.upsilon


def test_ascend_direct_branch():
    f = parse_tuple("(1,3,3;2,2,2)")
    assert delta(f) > 0
    assert ascend_witness(f) == f


def test_ascend_rotation_branch():
    f = parse_tuple("(1,3,3;0,2,2)")
    assert delta(f) <= 0 and f.q1 != 0
    w = ascend_witness(f)
    assert w == psi1(f)
    assert delta(w) > 0


def test_ascend_iterate_branch():
    f = parse_tuple("(3,3,7;4,0,4)")
    assert delta(f) <= 0 and f.q1 == 0
    w = ascend_witness(f)
    assert w == parse_tuple("(3,3,7;2,0,6)")
    assert delta(w) > 0
    assert w.upsilon == f.upsilon


def test_ascend_rejections():
    with pytest.raises(ValueError):
        ascend_witness(parse_tuple("(1,1,3;2,0,2)"))  # trap
    with pytest.raises(ValueError):
        ascend_witness(parse_tuple("(1,1,3;0,0,2)"))  # two vanishing shifts
    with pytest.raises(ValueError):
        ascend_witness(parse_tuple("(3,1,3;2,2,2)"))  # not canonical


def test_ascend_everywhere_small():
    """Every eligible canonical tuple yields a strictly ascending
    rotation without leaving its complexity level."""
    from twosym.tuples import zero_q_count

    for f in enumerate_canonical(13):
        if zero_q_count(f) > 1 or is_trap(f) is not None:
            continue
        w = ascend_witness(f)
        assert delta(w) > 0
        assert w.upsilon == f.upsilon


def test_explore_known_component():
    g = explore(parse_tuple("(1,3,3;2,2,2)"), 12)
    assert g.start == parse_tuple("(1,3,3;2,2,2)")
    assert len(g.nodes) == 7
    assert sorted(n.upsilon for n in g.nodes) == [6, 7, 7, 9, 9, 11, 11]
    assert len(g.edges) == 6
    assert len(g.frontier) == 3
    assert not g.closed and not g.truncated
    assert parse_tuple("(2,2,2;1,1,3)") in g.nodes


def test_explore_trap_is_closed():
    g = explore(parse_tuple("(1,1,3;2,0,2)"), 20)
    assert g.nodes == (parse_tuple("(1,1,3;2,0,2)"),)
    assert g.edges == ()
    assert g.closed


def test_explore_truncation():
    g = explore(parse_tuple("(1,3,3;2,2,2)"), 12, max_nodes=3)
    assert g.truncated
    assert len(g.nodes) == 3
    assert not g.closed


def test_explore_edges_are_normalised():
    g = explore(parse_tuple("(1,3,3;2,2,2)"), 12)
    for a, b in g.edges:
        assert a < b
        assert a in g.nodes and b in g.nodes
        assert g.degree(a) <= 3 and g.degree(b) <= 3


def test_orbit_graph_rejects_overfull_degree():
    f = parse_tuple("(1,3,3;2,2,2)")
    others = [
        parse_tuple("(2,2,2;1,1,3)"),
        parse_tuple("(1,3,5;2,2,4)"),
        parse_tuple("(1,1,3;2,0,2)"),
        parse_tuple("(1,1,1;0,0,0)"),
    ]
    edges = tuple(sorted((min(f, o), max(f, o)) for o in others))
    with pytest.raises(ValueError):
        OrbitGraph(f, tuple(sorted([f] + others)), edges, (), False)
