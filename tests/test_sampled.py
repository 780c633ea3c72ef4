"""Move laws, homology invariance and constructive surgery on seeded
samples of admissible tuples beyond the exhaustive suites' bounds."""

import random

from twosym import (
    SixTuple,
    build_graph,
    canonical_candidates,
    delta,
    h1,
    is_admissible,
    psi1,
    psi2,
    psi3,
    sigma,
    verify_sigma_constructively,
)


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


def test_sampled_homology_invariance():
    for f in SAMPLE:
        base = h1(build_graph(f))
        for image in (sigma(f), psi1(f), psi2(f), psi3(f)):
            assert h1(build_graph(image)) == base, (f, image)


def test_sampled_constructive_surgery():
    moving = [f for f in SAMPLE if f.q0 != 0]  # the move fixes q0 = 0
    assert moving
    for f in moving:
        report = verify_sigma_constructively(f)
        assert report.ok, (f, report.failures)
