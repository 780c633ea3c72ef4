"""Move laws, homology invariance and constructive surgery on seeded
samples of admissible tuples beyond the exhaustive suites' bounds."""

import random

import twosym.graphs
from twosym import (
    SixTuple,
    build_gf,
    build_graph,
    cancel_block,
    cancel_block_by_dipoles,
    canonical,
    canonical_candidates,
    delta,
    h1,
    h1_of_tuple,
    h1_presentation,
    h_orbit,
    is_admissible,
    is_canonical,
    permute_colours,
    psi1,
    psi2,
    psi3,
    sigma,
    sigma_neighbors,
    verify_sigma_constructively,
)
from twosym.graphs import ColouredGraph
from twosym.homology import cokernel, h1_presentation_of_tuple

# the four colour permutations that fix the sides {0,1} and {2,3}
REORIENTATIONS = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2))


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


def test_move_images_are_admissible(admissible_upto):
    """The move keeps admissibility, which lets explore check only its
    start: every move image of every admissible tuple up to 15 and of
    every relabelling of SAMPLE is admissible."""
    tuples = admissible_upto(15)
    tuples += [g for f in SAMPLE for g in h_orbit(f)]
    for f in tuples:
        assert is_admissible(sigma(f)), f


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


def test_trusted_graphs_pass_validation(monkeypatch, admissible_upto):
    """Cancellations and colour renamings skip validation; every graph
    they build for the four surgery blocks of each moving admissible
    tuple up to complexity 11 and of each moving sampled tuple, by
    welding or rung by rung as dipoles, passes the public constructor."""
    stepped = []
    real_cancel_dipole = twosym.graphs.cancel_dipole

    def cancel_dipole(g, u, w):
        stepped.append(real_cancel_dipole(g, u, w))
        return stepped[-1]

    monkeypatch.setattr(twosym.graphs, "cancel_dipole", cancel_dipole)
    tuples = [f for f in admissible_upto(11) if f.q0 != 0]
    tuples += [f for f in SAMPLE if f.q0 != 0]
    checked = 0
    for f in tuples:
        trace = build_gf(f)
        made = [permute_colours(trace.base_graph, p) for p in REORIENTATIONS]
        for block in (trace.ladder, trace.ladder_mate, trace.theta, trace.theta_mate):
            welded = cancel_block(trace.graph, block)
            made.append(welded)
            made.extend(permute_colours(welded, p) for p in REORIENTATIONS)
            stepped.clear()
            assert cancel_block_by_dipoles(trace.graph, block) == welded, f
            assert len(stepped) == block.length
            made.extend(stepped)
        for h in made:
            assert ColouredGraph(h.involutions, h.labels) == h, f
            checked += 1
    assert len(tuples) == 592 + sum(f.q0 != 0 for f in SAMPLE)
    assert checked == 21814


# Big tuples, where the surgery graphs have hundreds of vertices.
BIG_SAMPLE = sample_admissible(seed=2001, count=5, low=200, high=400)


def test_sampled_constructive_surgery_on_big_tuples():
    assert all(200 <= f.upsilon <= 400 and f.q0 != 0 for f in BIG_SAMPLE)
    for f in BIG_SAMPLE:
        report = verify_sigma_constructively(f)
        assert report.ok, (f, report.failures)
        assert_closed_form_matches_smith_route(f)
        assert_closed_form_matches_smith_route(sigma(f))
