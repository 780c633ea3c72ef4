"""Relabelling maps, canonical representatives, delta and the move."""

import itertools

import pytest

from twosym import (
    SUITES,
    SixTuple,
    canonical,
    canonical_candidates,
    delta,
    h_orbit,
    is_canonical,
    parse_tuple,
    psi,
    psi1,
    psi2,
    psi3,
    sigma,
    sigma_neighbors,
)
from twosym.catalogue import enumerate_admissible, enumerate_candidates


def test_psi_formulas():
    f = parse_tuple("(1,3,5;2,2,4)")
    assert psi1(f) == parse_tuple("(3,5,1;2,4,2)")
    assert psi2(f) == parse_tuple("(5,3,1;2,4,2)")
    assert psi3(f) == SixTuple.reduce(1, 3, 5, -2, -2, -4)
    assert psi(f, 1) == psi1(f) and psi(f, 2) == psi2(f) and psi(f, 3) == psi3(f)
    with pytest.raises(ValueError):
        psi(f, 4)


def test_group_relations():
    """psi1^3 = psi2^2 = psi3^2 = id and psi1 psi2 = psi2 psi1^2."""
    for f in enumerate_admissible(9):
        assert psi1(psi1(psi1(f))) == f
        assert psi2(psi2(f)) == f
        assert psi3(psi3(f)) == f
        assert psi1(psi2(f)) == psi2(psi1(psi1(f)))


def test_orbit_sizes_divide_twelve():
    assert len(h_orbit(parse_tuple("(1,1,1;0,0,0)"))) == 1
    assert len(h_orbit(parse_tuple("(1,1,3;2,0,2)"))) == 3
    assert len(h_orbit(parse_tuple("(1,3,3;2,2,2)"))) == 6
    for f in enumerate_admissible(9):
        assert 12 % len(h_orbit(f)) == 0


def _generated_orbit(f):
    """Closure of f under psi1, psi2 and psi3."""
    seen = {f}
    frontier = [f]
    while frontier:
        g = frontier.pop()
        for img in (psi1(g), psi2(g), psi3(g)):
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return sorted(seen)


def test_orbit_is_the_generated_closure():
    for f in enumerate_candidates(15):
        assert h_orbit(f) == _generated_orbit(f), f


def test_orbit_images_are_valid():
    """The scan and h_orbit build their tuples unvalidated; the
    constructor agrees on every one."""
    for f in enumerate_candidates(15):
        assert SixTuple(*f.h, *f.q) == f, f
        for g in h_orbit(f):
            assert SixTuple(*g.h, *g.q) == g, g


def test_orbit_closure():
    f = parse_tuple("(1,3,3;2,2,2)")
    orbit = set(h_orbit(f))
    for g in orbit:
        assert set(h_orbit(g)) == orbit
        for k in (1, 2, 3):
            assert psi(g, k) in orbit


def test_canonical_known_values():
    assert canonical(parse_tuple("(2,2,2;3,1,1)")) == parse_tuple("(2,2,2;1,1,3)")
    assert canonical(parse_tuple("(3,1,3;2,2,2)")) == parse_tuple("(1,3,3;2,2,2)")
    assert canonical(parse_tuple("(3,1,5;4,2,2)")) == parse_tuple("(1,3,5;2,2,4)")


def test_canonical_is_idempotent_and_orbit_constant():
    for f in enumerate_admissible(9):
        c = canonical(f)
        assert is_canonical(c)
        assert canonical(c) == c
        assert all(canonical(g) == c for g in h_orbit(f))


def test_tie_break_fires_on_negated_shift_only():
    """Members whose q2 ties with +q0 rather than -q0 stay canonical;
    each of these orbits would otherwise lose all its members."""
    for text in ["(2,2,4;1,3,1)", "(1,5,5;2,2,6)"]:
        f = parse_tuple(text)
        assert canonical_candidates(f) == [f]
        assert canonical(f) == f


def test_equal_h_photographs_need_both_groups():
    # all-equal-h orbits must satisfy the tie rules of both equal pairs
    f = parse_tuple("(3,3,3;0,2,2)")
    assert len(canonical_candidates(f)) == 1


def test_unique_candidate_everywhere_small():
    for f in enumerate_admissible(11):
        assert len(canonical_candidates(f)) == 1


def test_equal_h_zero_shift_ties_are_broken():
    """With all h equal and q0 = 0, psi2 psi3 swaps (q1, q2) with
    (-q2, -q1); the filter keeps the member with q1 + q2 <= 2h0.  The
    first three such tied orbits appear by complexity 23."""
    kept = parse_tuple("(5,5,5;0,2,6)")
    assert canonical_candidates(kept) == [kept]
    checked, failures, _ = SUITES["canonical-uniqueness"][0](23)
    assert (checked, failures) == (4741, [])
    for src, dst in [
        ("(5,5,5;0,4,8)", "(5,5,5;0,2,6)"),
        ("(7,7,7;0,6,12)", "(7,7,7;0,2,8)"),
        ("(7,7,7;0,4,12)", "(7,7,7;0,2,10)"),
    ]:
        assert canonical(parse_tuple(src)) == parse_tuple(dst)


def test_delta_rotations():
    f = parse_tuple("(1,3,3;2,2,2)")
    assert [delta(f), delta(psi1(f)), delta(psi1(psi1(f)))] == [2, 2, -1]
    assert delta(parse_tuple("(1,1,3;0,0,2)")) == 0
    assert delta(parse_tuple("(1,1,3;2,0,2)")) == 0


def test_sigma_known_values():
    pairs = [
        ("(1,3,3;2,2,2)", "(3,1,5;4,2,2)"),
        ("(2,2,2;3,1,1)", "(3,1,3;2,2,2)"),
        ("(1,1,3;2,0,2)", "(1,1,3;2,0,2)"),
        ("(1,1,3;0,0,2)", "(1,1,3;0,0,2)"),  # vanishing first shift
    ]
    for src, dst in pairs:
        assert sigma(parse_tuple(src)) == parse_tuple(dst)


def test_sigma_is_an_involution_and_shifts_complexity():
    for f in enumerate_admissible(11):
        assert sigma(sigma(f)) == f
        assert sigma(f).upsilon == f.upsilon + delta(f)


def test_sigma_commutes_with_the_stabilising_relabellings():
    for f in enumerate_admissible(9):
        assert sigma(psi2(f)) == psi2(sigma(f))
        assert sigma(psi3(f)) == psi3(sigma(f))


def test_sigma_neighbors():
    f = parse_tuple("(1,3,3;2,2,2)")
    assert [str(x) for x in sigma_neighbors(f)] == [
        "(1,3,5;2,2,4)",
        "(2,2,2;1,1,3)",
    ]
    # a fixed point of the move in every rotation has no neighbours
    assert sigma_neighbors(parse_tuple("(1,1,3;2,0,2)")) == []


def test_sigma_neighbors_canonicalizes_its_input():
    f = parse_tuple("(3,1,3;2,2,2)")
    assert sigma_neighbors(f) == sigma_neighbors(canonical(f))
