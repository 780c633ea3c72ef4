"""Move laws, homology invariance and constructive surgery on seeded
samples of admissible tuples beyond the exhaustive suites' bounds."""

import random

from twosym import (
    SixTuple,
    build_graph,
    canonical,
    canonical_candidates,
    delta,
    h1,
    h1_of_tuple,
    h1_presentation,
    is_admissible,
    is_canonical,
    psi1,
    psi2,
    psi3,
    sigma,
    sigma_neighbors,
    verify_sigma_constructively,
)
from twosym.homology import cokernel, h1_presentation_of_tuple


def sample_admissible(seed, count, low=25, high=60):
    """count admissible tuples of complexity low..high: a complexity, a
    same-parity h-composition and shifts of the opposite parity below
    each cycle length are drawn at random until the tuple is admissible."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        total = rng.randint(low, high)
        a = rng.randrange(1, total - 1)
        b = rng.randrange(1, total - a)
        h = (a, b, total - a - b)
        if len({x % 2 for x in h}) != 1:
            continue
        start = 1 - a % 2
        q = [start + 2 * rng.randrange((h[i - 1] + h[i]) // 2) for i in range(3)]
        f = SixTuple(*h, *q)
        if is_admissible(f):
            out.append(f)
    return out


SAMPLE = sample_admissible(seed=2000, count=40)


def test_sampled_move_laws():
    assert len(set(SAMPLE)) == 40
    assert all(25 <= f.upsilon <= 60 for f in SAMPLE)
    for f in SAMPLE:
        moved = sigma(f)
        assert sigma(moved) == f, f
        assert moved.upsilon == f.upsilon + delta(f), f
        assert sigma(psi2(f)) == psi2(moved), f
        assert sigma(psi3(f)) == psi3(moved), f


def test_sampled_canonical_is_unique():
    for f in SAMPLE:
        assert len(canonical_candidates(f)) == 1, f
        # the filter test agrees with the orbit map on both outcomes
        for g in (f, canonical(f)):
            assert is_canonical(g) == (canonical(g) == g), g


def test_sampled_sigma_neighbors_is_the_move_on_each_rotation():
    for f in SAMPLE:
        c = canonical(f)
        expected = {canonical(sigma(g)) for g in (c, psi1(c), psi1(psi1(c)))}
        assert sigma_neighbors(f) == sorted(expected - {c}), f


def assert_closed_form_matches_smith_route(f):
    assert h1_of_tuple(f) == cokernel(h1_presentation_of_tuple(f), 3), f


def test_sampled_homology_invariance():
    """Both homology routes, the graph's and the tuple kernel's, agree
    and are invariant under the move and the relabellings; the tuple
    kernel's closed form agrees with Smith reduction of its relators."""
    for f in SAMPLE:
        g = build_graph(f)
        assert h1_presentation_of_tuple(f) == h1_presentation(g), f
        base = h1(g)
        assert h1_of_tuple(f) == base, f
        for image in (sigma(f), psi1(f), psi2(f), psi3(f)):
            assert h1(build_graph(image)) == base, (f, image)
            assert h1_of_tuple(image) == base, (f, image)
            assert_closed_form_matches_smith_route(image)
        assert_closed_form_matches_smith_route(f)


def test_sampled_constructive_surgery():
    moving = [f for f in SAMPLE if f.q0 != 0]  # the move fixes q0 = 0
    assert moving
    for f in moving:
        report = verify_sigma_constructively(f)
        assert report.ok, (f, report.failures)


# Big tuples, where the surgery graphs have hundreds of vertices.
BIG_SAMPLE = sample_admissible(seed=2001, count=5, low=200, high=400)


def test_sampled_constructive_surgery_on_big_tuples():
    assert all(200 <= f.upsilon <= 400 and f.q0 != 0 for f in BIG_SAMPLE)
    for f in BIG_SAMPLE:
        report = verify_sigma_constructively(f)
        assert report.ok, (f, report.failures)
        assert_closed_form_matches_smith_route(f)
        assert_closed_form_matches_smith_route(sigma(f))
