"""Acceptance gate: the twelve release criteria, one test each.

Each test states its tolerance inline.  Suites that bundle many property
checks report per-failure details through SuiteReport, so a red test
here prints exactly which tuples broke which law.
"""

import math
import time
import warnings

from twosym import (
    ascend_witness,
    build_graph,
    canonical,
    canonical_candidates,
    delta,
    h1,
    is_root,
    is_trap,
    minimize,
    parse_tuple,
    psi1,
    run_suite,
    sigma,
)
from twosym.catalogue import enumerate_canonical
from twosym.tuples import admissibility, zero_q_count


def suite_ok(name):
    report = run_suite(name)
    assert report.ok, f"{name} failed:\n" + "\n".join(report.failures)
    return report


def test_01_smallest_catalogue_exact_and_fast():
    """Complexity five admits exactly three canonical tuples, instantly."""
    started = time.perf_counter()
    got = {str(f) for f in enumerate_canonical(5)}
    elapsed = time.perf_counter() - started
    assert got == {"(1,1,1;0,0,0)", "(1,1,3;0,0,2)", "(1,1,3;2,0,2)"}
    assert elapsed < 1.0


def test_02_lens_and_trap_homology():
    """Closed-form first homology for the sphere, the solid-torus trap,
    and the whole coprime lens family up to order 25; exact equality."""
    assert str(h1(build_graph(parse_tuple("(1,1,1;0,0,0)")))) == "0"
    assert str(h1(build_graph(parse_tuple("(1,1,3;2,0,2)")))) == "Z"
    for p in range(2, 26):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            f = parse_tuple(f"(1,1,{2 * p - 1};0,0,{2 * q})")
            group = h1(build_graph(f))
            assert (group.free_rank, group.torsion) == (0, (p,)), (f, str(group))


def test_03_transformation_laws():
    """Move and relabelling algebra on every admissible tuple of
    complexity at most 13; zero failures, under a minute."""
    report = suite_ok("laws")
    assert report.checked == 1953
    assert report.seconds < 60.0


def test_04_constructive_surgery_sweep():
    """Every genuine move with complexity at most 11 is reproduced by
    explicit block surgery, including the strip-count table row."""
    report = suite_ok("sigma-constructive")
    assert report.checked == 592


def test_05_invariance():
    """First homology is blind to the move and the relabellings, the
    complexity shift equals delta, and both welding routes agree."""
    report = suite_ok("homology-invariance")
    assert report.checked == 1953


def test_06_minimality_agreement():
    """Closed-form minimal/root predicates agree with the descent-based
    definitions on every canonical tuple of complexity at most 15."""
    report = suite_ok("minimality-agreement")
    assert report.checked == 432


def test_07_worked_chain():
    """A full descent worked by hand: the chain, the move it uses, the
    rotation deltas, and the root certificate of the end point."""
    start = parse_tuple("(1,3,3;2,2,2)")
    bottom = parse_tuple("(2,2,2;1,1,3)")
    assert minimize(start) == bottom
    assert sigma(parse_tuple("(3,1,3;2,2,2)")) == parse_tuple("(2,2,2;3,1,1)")
    assert canonical(parse_tuple("(2,2,2;3,1,1)")) == bottom
    assert [delta(start), delta(psi1(start)), delta(psi1(psi1(start)))] == [2, 2, -1]
    assert is_root(bottom)


def test_08_trap_behavior_and_ascent():
    """Traps close up under bounded exploration and keep their type;
    every guard-passing non-trap ascends with a strictly positive delta
    at its own complexity level (certifying unbounded ascent)."""
    suite_ok("trap-closure")
    for f in enumerate_canonical(13):
        if zero_q_count(f) > 1 or is_trap(f) is not None:
            continue
        witness = ascend_witness(f)
        assert delta(witness) > 0, f
        assert witness.upsilon == f.upsilon, f


def test_09_genus_two_embedding():
    """The colour order (0,2,1,3) embeds every admissible graph of
    complexity at most 13 in the surface with Euler characteristic -2."""
    report = suite_ok("genus-embedding")
    assert report.checked == 1953


def test_10_gem_sanity():
    """Every admissible graph is a bipartite contracted gem with three
    {2,3}-residues; the two classic near-misses report five."""
    from twosym import is_contracted, is_gem
    from twosym.catalogue import enumerate_admissible

    for f in enumerate_admissible(13):
        g = build_graph(f)
        assert is_gem(g), f
        assert is_contracted(g), f
        assert g.bipartition() is not None, f
        assert len(g.residues((2, 3))) == 3, f
    for text in ["(3,3,3;0,0,2)", "(1,1,3;0,0,0)"]:
        report = admissibility(parse_tuple(text))
        assert not report.ok
        assert report.residues_23 == 5


def test_11_canonical_uniqueness():
    """The representative filter isolates exactly one member of each of
    the 197 orbits up to complexity 13 with no warnings; a deeper orbit
    whose tie only the q0 = 0 rule breaks resolves without one too."""
    report = suite_ok("canonical-uniqueness")
    assert report.checked == 197
    assert report.notes == ()

    seen = set()
    count = 0
    for f in enumerate_canonical(13):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert canonical_candidates(f) == [f]
        assert f not in seen
        seen.add(f)
        count += 1
    assert count == 197

    # the all-equal-h, q0 = 0 tie: resolved by the filter, no warning
    tied = parse_tuple("(5,5,5;0,4,8)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert canonical(tied) == parse_tuple("(5,5,5;0,2,6)")


def test_12_full_census():
    """The complexity-21 census emits its raw size (a figure with no
    independent cross-check, recorded as a regression anchor) and the
    genus-two candidate list — guard-passing tuples that are not traps —
    is verified trap-free on a second pass; the guard-passing traps are
    surfaced explicitly rather than silently dropped."""
    tuples = list(enumerate_canonical(21))
    print(f"\nraw canonical census at complexity 21: {len(tuples)} tuples")
    assert len(tuples) == 2803  # regression anchor, informational

    guard_passing = [f for f in tuples if zero_q_count(f) <= 1]
    trapped = [f for f in guard_passing if is_trap(f) is not None]
    candidates = [f for f in guard_passing if f not in set(trapped)]

    print(f"guard-passing traps surfaced: {len(trapped)}")
    assert len(trapped) == 56
    assert all(f.h0 == 1 and f.h1 == 1 for f in trapped)

    assert len(candidates) == 2687
    assert all(is_trap(f) is None for f in candidates)
