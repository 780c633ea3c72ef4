"""Symmetry maps and the 2-symmetric move on 6-tuples.

Three relabelling maps psi1 (cyclic shift of the colour roles), psi2
(reversal) and psi3 (shift negation) generate a dihedral group of order
12 acting on tuples without changing the encoded manifold.  The move
sigma is an involution that also preserves the manifold but can change
the complexity by delta; it is the identity exactly when q0 = 0.
"""

from __future__ import annotations

from .tuples import ConditionError, SixTuple, require_admissible


def psi1(f: SixTuple) -> SixTuple:
    return SixTuple.reduce(f.h1, f.h2, f.h0, f.q1, f.q2, f.q0)


def psi2(f: SixTuple) -> SixTuple:
    return SixTuple.reduce(f.h2, f.h1, f.h0, f.q0, f.q2, f.q1)


def psi3(f: SixTuple) -> SixTuple:
    return SixTuple.reduce(f.h0, f.h1, f.h2, -f.q0, -f.q1, -f.q2)


def psi(f: SixTuple, k: int) -> SixTuple:
    try:
        return (psi1, psi2, psi3)[k - 1](f)
    except IndexError:
        raise ValueError(f"psi index must be 1, 2 or 3, got {k}") from None


# The relabelling group as (h, q) index maps: psi1^k for k = 0, 1, 2,
# each alone and followed by psi2.  Each map carries q_i together with
# its modulus 2l_i, so images need no reduction.  h_orbit applies each
# map to q and to psi3's negated shifts, giving all twelve elements.
_DIHEDRAL = (
    ((0, 1, 2), (0, 1, 2)),
    ((2, 1, 0), (0, 2, 1)),
    ((1, 2, 0), (1, 2, 0)),
    ((0, 2, 1), (1, 0, 2)),
    ((2, 0, 1), (2, 0, 1)),
    ((1, 0, 2), (2, 1, 0)),
)


def h_orbit(f: SixTuple) -> list[SixTuple]:
    """Orbit of f under the relabelling group, sorted (size divides 12)."""
    h = f.h
    q = f.q
    negated = (-q[0] % (h[2] + h[0]), -q[1] % (h[0] + h[1]), -q[2] % (h[1] + h[2]))
    images = {
        (h[a], h[b], h[c], s[x], s[y], s[z])
        for (a, b, c), (x, y, z) in _DIHEDRAL
        for s in (q, negated)
    }
    return [SixTuple._trusted(img) for img in sorted(images)]


# -- canonical orbit representative -----------------------------------------


def _neg_rep(q: int, mod: int) -> int:
    """Representative of -q in {1, ..., mod} used for upper bounds."""
    return mod - q if q else mod


def passes_representative_filter(g: SixTuple) -> bool:
    """The chain of normalisation conditions selecting one orbit member.

    Ordering conditions on h come first; tie-breaking conditions on the
    shifts apply under the h-equalities that put extra relabellings in
    the stabiliser of the sorted arrangement, and all groups that apply
    are required together.  Each group's final tie-break fires only when
    q2 (resp. q1) equals the negative of q0: equality with +q0 leaves
    the member fixed by the extra relabelling, so there is no tie to
    break, and demanding the break there would reject whole orbits.
    With all h equal and q0 = 0, psi2 psi3 fixes q0 and sends (q1, q2)
    to (-q2, -q1), which maps q1 + q2 to 4h0 - (q1 + q2) when nonzero;
    requiring q1 + q2 <= 2h0 keeps one member of each such pair.
    """
    h0, h1, h2 = g.h
    q0, q1, q2 = g.q
    if not h0 <= h1 <= h2:
        return False
    l0, l1, l2 = g.two_l(0) // 2, g.two_l(1) // 2, g.two_l(2) // 2
    if q0 > l0:
        return False
    if q0 in (0, l0):
        if q1 > l1:
            return False
        if q1 in (0, l1) and q2 > l2:
            return False
    if h0 == h1:
        m = g.two_l(2)  # equals two_l(0) when h0 = h1
        if not q0 <= q2 <= _neg_rep(q0, m):
            return False
        if q2 == _neg_rep(q0, m) and q1 > h1:
            return False
    if h1 == h2:
        m = g.two_l(1)  # equals two_l(0) when h1 = h2
        if not q0 <= q1 <= _neg_rep(q0, m):
            return False
        if q1 == _neg_rep(q0, m) and q2 > h2:
            return False
    if h0 == h1 == h2 and (q1 > q2 or (q0 == 0 and q1 + q2 > 2 * h0)):
        return False
    return True


def canonical_candidates(f: SixTuple) -> list[SixTuple]:
    return [g for g in h_orbit(f) if passes_representative_filter(g)]


def canonical(f: SixTuple) -> SixTuple:
    """The distinguished member of f's relabelling orbit: the one orbit
    member that passes the representative filter.

    The filter is complete (checked exhaustively to complexity 27), so
    a count other than one is a bug and raises RuntimeError.
    """
    cands = canonical_candidates(f)
    if len(cands) != 1:
        raise RuntimeError(
            f"representative filter left {len(cands)} candidates on the "
            f"orbit of {f}"
        )
    return cands[0]


def is_canonical(f: SixTuple) -> bool:
    return canonical(f) == f


# -- the 2-symmetric move ----------------------------------------------------


def delta(f: SixTuple) -> int:
    """Complexity change of the move: upsilon(sigma(f)) - upsilon(f).

    Needs the h+q parity condition so the four guards below are
    exhaustive (q0 can never equal h0 or h2).
    """
    for i in range(3):
        if (f.h[i] + f.q[i]) % 2 == 0:
            raise ConditionError("h+q parity", f"h{i}+q{i} even in {f}")
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


def sigma(f: SixTuple) -> SixTuple:
    """The 2-symmetric move.  Identity when q0 = 0, otherwise one of four
    rewritings picked by comparing q0 with h0 and h2; an involution that
    commutes with psi2 and psi3."""
    require_admissible(f)
    h0, h1, h2 = f.h
    q0, q1, q2 = f.q
    if q0 == 0:
        return f
    if q0 < h0 and q0 < h2:
        return SixTuple.reduce(
            h0 + h1 - q0, q0, h2 + h1 - q0,
            h0 + h1 + h2 - 2 * q0, q0 + q1 + h1, q0 + q2 + h1,
        )
    if q0 > h0 and q0 > h2:
        return SixTuple.reduce(
            q0 + h1 - h2, h0 + h2 - q0, q0 + h1 - h0,
            h1, q0 + q1 - h2, q0 + q2 - h0,
        )
    if h0 < q0 < h2:
        return SixTuple.reduce(
            h1, h0, h1 + h2 - h0,
            h1 + h2 - q0, q1, 2 * q0 + q2 + h1 - h0,
        )
    return SixTuple.reduce(
        h1 + h0 - h2, h2, h1,
        h1 + h0 - q0, 2 * q0 + q1 + h1 - h2, q2,
    )


def sigma_neighbors(f: SixTuple) -> list[SixTuple]:
    """Canonical forms reachable by one move from any rotation of f,
    excluding f's own canonical form; sorted."""
    base = canonical(f)
    out = set()
    for g in (base, psi1(base), psi1(psi1(base))):
        out.add(canonical(sigma(g)))
    out.discard(base)
    return sorted(out)
