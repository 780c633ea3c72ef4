"""Relabelling maps, canonical representatives, delta and the move."""

import itertools

import pytest

from twosym import (
    ConditionError,
    SUITES,
    TSV_COLUMNS,
    SixTuple,
    ascend_witness,
    build_gf,
    canonical,
    canonical_candidates,
    classify_record,
    delta,
    descent_minimal,
    descent_root,
    explore,
    h_orbit,
    is_admissible,
    is_canonical,
    is_minimal,
    is_root,
    is_trap,
    minimize,
    parse_tuple,
    psi,
    psi1,
    psi2,
    psi3,
    records_from_tsv,
    sigma,
    sigma_neighbors,
    verify_sigma_constructively,
)
from twosym import moves
from twosym.catalogue import enumerate_candidates
from twosym.tuples import even_parities


def test_psi_formulas():
    f = parse_tuple("(1,3,5;2,2,4)")
    assert psi1(f) == parse_tuple("(3,5,1;2,4,2)")
    assert psi2(f) == parse_tuple("(5,3,1;2,4,2)")
    assert psi3(f) == SixTuple.reduce(1, 3, 5, -2, -2, -4)
    assert psi(f, 1) == psi1(f) and psi(f, 2) == psi2(f) and psi(f, 3) == psi3(f)
    with pytest.raises(ValueError):
        psi(f, 4)


def test_group_relations(admissible_upto):
    """psi1^3 = psi2^2 = psi3^2 = id and psi1 psi2 = psi2 psi1^2."""
    for f in admissible_upto(9):
        assert psi1(psi1(psi1(f))) == f
        assert psi2(psi2(f)) == f
        assert psi3(psi3(f)) == f
        assert psi1(psi2(f)) == psi2(psi1(psi1(f)))


def test_orbit_sizes_divide_twelve(admissible_upto):
    assert len(h_orbit(parse_tuple("(1,1,1;0,0,0)"))) == 1
    assert len(h_orbit(parse_tuple("(1,1,3;2,0,2)"))) == 3
    assert len(h_orbit(parse_tuple("(1,3,3;2,2,2)"))) == 6
    for f in admissible_upto(9):
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


def test_canonical_is_idempotent_and_orbit_constant(admissible_upto):
    for f in admissible_upto(9):
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


def test_unique_candidate_everywhere_small(admissible_upto):
    for f in admissible_upto(11):
        assert len(canonical_candidates(f)) == 1


def valid_tuples(max_complexity):
    """Every valid tuple up to the bound, admissible or not: same-parity
    h and every same-parity q below the cycle lengths, of either parity."""
    for total in range(3, max_complexity + 1):
        for h0 in range(1, total - 1):
            for h1 in range(1, total - h0):
                h2 = total - h0 - h1
                if h0 % 2 != h1 % 2 or h0 % 2 != h2 % 2:
                    continue
                moduli = (h2 + h0, h0 + h1, h1 + h2)
                for start in (0, 1):
                    for q in itertools.product(
                        *(range(start, m, 2) for m in moduli)
                    ):
                        yield SixTuple(h0, h1, h2, *q)


def test_is_canonical_is_the_orbit_map_fixed_point():
    """The filter test agrees with building the orbit, on every valid
    tuple up to complexity 17 (admissible or not)."""
    count = 0
    for f in valid_tuples(17):
        count += 1
        assert is_canonical(f) == (canonical(f) == f), f
    assert count == 30396


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


def test_sigma_is_an_involution_and_shifts_complexity(admissible_upto):
    for f in admissible_upto(11):
        assert sigma(sigma(f)) == f
        assert sigma(f).upsilon == f.upsilon + delta(f)


def test_sigma_commutes_with_the_stabilising_relabellings(admissible_upto):
    for f in admissible_upto(9):
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


def test_canonical_is_the_unique_passer_of_the_orbit():
    """The int kernel behind canonical picks what filtering h_orbit's
    tuples picks, on every scan candidate up to 13, admissible or not."""
    for f in enumerate_candidates(13):
        passers = [g for g in h_orbit(f) if is_canonical(g)]
        assert passers == [canonical(f)], f


def test_sigma_neighbors_is_the_move_on_each_rotation(admissible_upto):
    """sigma_neighbors equals canonicalising the move of each rotation
    of the canonical form, on every admissible tuple up to 15."""
    count = 0
    for f in admissible_upto(15):
        count += 1
        c = canonical(f)
        expected = {canonical(sigma(g)) for g in (c, psi1(c), psi1(psi1(c)))}
        assert sigma_neighbors(f) == sorted(expected - {c}), f
    assert count == 4477


# the public entry points that take any tuple, and those that need a
# canonical one
ANY_TUPLE = (
    sigma, sigma_neighbors, minimize, descent_root, lambda f: explore(f, 40),
    build_gf, verify_sigma_constructively, descent_minimal, is_trap, delta,
)
CANONICAL_ONLY = (is_minimal, is_root, ascend_witness)


def test_sigma_neighbors_rejects_inadmissible_tuples():
    """Every entry point that takes a tuple from outside proves it
    admissible, and raises ConditionError otherwise: on the inadmissible
    candidates up to 9 and on a tuple whose every h_i + q_i is even.
    The entry points that need a canonical tuple get the canonical ones."""
    bad = [f for f in enumerate_candidates(9) if not is_admissible(f)]
    bad.append(parse_tuple("(1,1,1;1,1,1)"))  # every h_i + q_i even
    canonical_bad = [f for f in bad if is_canonical(f)]
    assert len(canonical_bad) == 19
    for f in bad:
        for entry in ANY_TUPLE:
            with pytest.raises(ConditionError):
                entry(f)
    for f in canonical_bad:
        for entry in (*CANONICAL_ONLY, classify_record):
            with pytest.raises(ConditionError):
                entry(f)
    # a catalogue row is proved by the H1 walk before its flags are read
    row = "(1,1,1;1,1,1)\t3\tfalse\t\tfalse\tfalse\t0\t\t"
    with pytest.raises(ConditionError):
        records_from_tsv("\t".join(TSV_COLUMNS) + "\n" + row + "\n")


def test_entry_points_prove_their_input_once(admissibility_calls):
    """An entry point proves a fresh admissible tuple exactly once, and
    the images it goes on to use (rotations, moves, canonical forms)
    reuse that proof; classify_record's H1 walk decides without one."""
    for entry in ANY_TUPLE + CANONICAL_ONLY:
        admissibility_calls.clear()
        entry(parse_tuple("(1,3,3;2,2,2)"))
        assert len(admissibility_calls) == 1, entry
    admissibility_calls.clear()
    classify_record(parse_tuple("(1,3,3;2,2,2)"))
    assert admissibility_calls == []


@pytest.mark.parametrize("verdict", [True, False])
def test_the_filter_count_is_checked_on_every_canonicalisation(
    monkeypatch, verdict
):
    """A filter that keeps every orbit member, or none, is caught by
    canonical and by sigma_neighbors rather than silently resolved."""
    monkeypatch.setattr(moves, "_passes", lambda *fields: verdict)
    f = parse_tuple("(1,3,3;2,2,2)")
    with pytest.raises(RuntimeError, match="representative filter left"):
        canonical(f)
    with pytest.raises(RuntimeError, match="representative filter left"):
        sigma_neighbors(f)


# -- the move against its four-case reference --------------------------------
#
# The library decides the move once, by the strip table moves._strips,
# and rebuilds the moved tuple from the strips with one formula.  Here
# the four rewritings and the four complexity changes are written out
# case by case, as an independent cross-check of that encoding.


def reference_delta(f: SixTuple) -> int:
    even = even_parities(f)
    if even:
        raise ConditionError("h+q parity", f"h{even[0]}+q{even[0]} even in {f}")
    h0, h1, h2 = f.h
    q0 = f.q0
    if q0 == 0:
        return 0
    if q0 < h0 and q0 < h2:
        return h1 - q0
    if q0 > h0 and q0 > h2:
        return q0 + h1 - h0 - h2
    if h0 < q0 < h2:
        return h1 - h0
    return h1 - h2  # h2 < q0 < h0


def reference_move(h0: int, h1: int, h2: int, q0: int, q1: int, q2: int) -> tuple:
    if q0 < h0 and q0 < h2:
        return (
            h0 + h1 - q0, q0, h2 + h1 - q0,
            h0 + h1 + h2 - 2 * q0, q0 + q1 + h1, q0 + q2 + h1,
        )
    if q0 > h0 and q0 > h2:
        return (
            q0 + h1 - h2, h0 + h2 - q0, q0 + h1 - h0,
            h1, q0 + q1 - h2, q0 + q2 - h0,
        )
    if h0 < q0 < h2:
        return (
            h1, h0, h1 + h2 - h0,
            h1 + h2 - q0, q1, 2 * q0 + q2 + h1 - h0,
        )
    return (
        h1 + h0 - h2, h2, h1,
        h1 + h0 - q0, 2 * q0 + q1 + h1 - h2, q2,
    )


# one tuple per guard row, small and large (the large ones are the
# CI's big-graph surgery pins)
ROW_CASES = [
    ("(3,1,3;2,2,2)", lambda h0, h2, q0: q0 < h0 and q0 < h2),
    ("(150,28,102;17,43,41)", lambda h0, h2, q0: q0 < h0 and q0 < h2),
    ("(2,2,2;3,1,1)", lambda h0, h2, q0: q0 > h0 and q0 > h2),
    ("(51,135,107;156,6,18)", lambda h0, h2, q0: q0 > h0 and q0 > h2),
    ("(1,3,3;2,2,2)", lambda h0, h2, q0: h0 < q0 < h2),
    ("(4,194,74;65,33,265)", lambda h0, h2, q0: h0 < q0 < h2),
    ("(3,3,1;2,2,2)", lambda h0, h2, q0: h2 < q0 < h0),
    ("(143,137,33;34,220,140)", lambda h0, h2, q0: h2 < q0 < h0),
]


def test_move_matches_the_four_case_reference(admissible_upto):
    """sigma and delta agree with the case-by-case rewriting on every
    admissible tuple up to complexity 21, on SAMPLE and on tuples that
    hit each guard row."""
    from test_sampled import SAMPLE

    rows = [parse_tuple(text) for text, _ in ROW_CASES]
    for f, (text, guard) in zip(rows, ROW_CASES):
        assert is_admissible(f) and guard(f.h0, f.h2, f.q0), text
    census = admissible_upto(21)
    assert sum(1 for f in census if f.q0 != 0) == 28_108
    for f in census + SAMPLE + rows:
        assert delta(f) == reference_delta(f), f
        if f.q0 == 0:
            assert sigma(f) == f
        else:
            assert sigma(f) == SixTuple.reduce(*reference_move(*f.h, *f.q)), f
    for f in (parse_tuple("(1,1,1;1,1,1)"), parse_tuple("(3,1,3;1,1,1)")):
        for fn in (delta, reference_delta):
            with pytest.raises(ConditionError):
                fn(f)
