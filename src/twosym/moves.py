"""Symmetry maps and the 2-symmetric move on 6-tuples.

Three relabelling maps psi1 (cyclic shift of the colour roles), psi2
(reversal) and psi3 (shift negation) generate a dihedral group of order
12 acting on tuples without changing the encoded manifold.  The move
sigma is an involution that also preserves the manifold but can change
the complexity by delta; it is the identity exactly when q0 = 0.

The move is decided once, by the guard table _strips: comparing q0 with
h0 and h2 picks one of four rows of strip lengths (L, p1, p2, r1, r2),
the lengths the surgery in surgery.py measures on its split graph.  One
formula (_rebuild) reads the moved tuple off the strips, and delta is
h1 - L.  The surgery check reads the same two functions.

The relabelling orbit, the representative filter and the move's
rewriting are kernels on plain int 6-tuples (_orbit_fields, _passes,
_canonical_fields, _move, _neighbour_fields); h_orbit, is_canonical,
canonical, sigma and sigma_neighbors wrap them and build a SixTuple
only for a result the caller keeps.  Every tuple they return is an
image of their input and inherits its admissibility proof
(SixTuple._image); sigma, sigma_neighbors and delta prove their input,
which costs nothing on a proved tuple.  A relabelling image of a valid
tuple is valid, so orbit members are built unvalidated, but every move
image goes through the validating SixTuple.reduce, and the filter's
count is checked on every orbit that is canonicalised.
"""

from __future__ import annotations

from .tuples import SixTuple, require_admissible


def psi1(f: SixTuple) -> SixTuple:
    return f._image(SixTuple.reduce(f.h1, f.h2, f.h0, f.q1, f.q2, f.q0))


def psi2(f: SixTuple) -> SixTuple:
    return f._image(SixTuple.reduce(f.h2, f.h1, f.h0, f.q0, f.q2, f.q1))


def psi3(f: SixTuple) -> SixTuple:
    return f._image(SixTuple.reduce(f.h0, f.h1, f.h2, -f.q0, -f.q1, -f.q2))


def psi(f: SixTuple, k: int) -> SixTuple:
    try:
        return (psi1, psi2, psi3)[k - 1](f)
    except IndexError:
        raise ValueError(f"psi index must be 1, 2 or 3, got {k}") from None


# The relabelling group as (h, q) index maps: psi1^k for k = 0, 1, 2,
# each alone and followed by psi2.  Each map carries q_i together with
# its modulus 2l_i, so images need no reduction.  _orbit_fields applies
# each map to q and to psi3's negated shifts, giving all twelve elements.
_DIHEDRAL = (
    ((0, 1, 2), (0, 1, 2)),
    ((2, 1, 0), (0, 2, 1)),
    ((1, 2, 0), (1, 2, 0)),
    ((0, 2, 1), (1, 0, 2)),
    ((2, 0, 1), (2, 0, 1)),
    ((1, 0, 2), (2, 1, 0)),
)


def _orbit_fields(h: tuple[int, int, int], q: tuple[int, int, int]) -> set[tuple]:
    """The relabelling orbit of (h; q) as a set of int 6-tuples."""
    negated = (-q[0] % (h[2] + h[0]), -q[1] % (h[0] + h[1]), -q[2] % (h[1] + h[2]))
    return {
        (h[a], h[b], h[c], s[x], s[y], s[z])
        for (a, b, c), (x, y, z) in _DIHEDRAL
        for s in (q, negated)
    }


def h_orbit(f: SixTuple) -> list[SixTuple]:
    """Orbit of f under the relabelling group, sorted (size divides 12)."""
    return [f._image(SixTuple._trusted(g)) for g in sorted(_orbit_fields(f.h, f.q))]


# -- canonical orbit representative -----------------------------------------


def _neg_rep(q: int, mod: int) -> int:
    """Representative of -q in {1, ..., mod} used for upper bounds."""
    return mod - q if q else mod


def _passes(h0: int, h1: int, h2: int, q0: int, q1: int, q2: int) -> bool:
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
    if not h0 <= h1 <= h2:
        return False
    l0, l1, l2 = (h2 + h0) // 2, (h0 + h1) // 2, (h1 + h2) // 2
    if q0 > l0:
        return False
    if q0 in (0, l0):
        if q1 > l1:
            return False
        if q1 in (0, l1) and q2 > l2:
            return False
    if h0 == h1:
        m = h1 + h2  # two_l(2), which equals two_l(0) when h0 = h1
        if not q0 <= q2 <= _neg_rep(q0, m):
            return False
        if q2 == _neg_rep(q0, m) and q1 > h1:
            return False
    if h1 == h2:
        m = h0 + h1  # two_l(1), which equals two_l(0) when h1 = h2
        if not q0 <= q1 <= _neg_rep(q0, m):
            return False
        if q1 == _neg_rep(q0, m) and q2 > h2:
            return False
    if h0 == h1 == h2 and (q1 > q2 or (q0 == 0 and q1 + q2 > 2 * h0)):
        return False
    return True


def is_canonical(f: SixTuple) -> bool:
    """Whether f is its orbit's distinguished member.

    The filter passes exactly one member of every orbit (see canonical),
    so f is canonical exactly when it passes: a test on f's own
    coordinates, with no orbit built.  canonical() keeps the orbit-wide
    count check.
    """
    return _passes(f.h0, f.h1, f.h2, f.q0, f.q1, f.q2)


def canonical_candidates(f: SixTuple) -> list[SixTuple]:
    return [g for g in h_orbit(f) if is_canonical(g)]


def _canonical_fields(h: tuple[int, int, int], q: tuple[int, int, int]) -> tuple:
    """The one member of the orbit of (h; q) that passes the filter.

    The filter is complete (checked exhaustively to complexity 33), so
    a count other than one is a bug and raises RuntimeError.
    """
    cands = [g for g in _orbit_fields(h, q) if _passes(*g)]
    if len(cands) != 1:
        raise RuntimeError(
            f"representative filter left {len(cands)} candidates on the "
            f"orbit of ({h[0]},{h[1]},{h[2]};{q[0]},{q[1]},{q[2]})"
        )
    return cands[0]


def canonical(f: SixTuple) -> SixTuple:
    """The distinguished member of f's relabelling orbit: the one orbit
    member that passes the representative filter (see _canonical_fields)."""
    return f._image(SixTuple._trusted(_canonical_fields(f.h, f.q)))


# -- the 2-symmetric move ----------------------------------------------------


def _strips(h0: int, h2: int, q0: int) -> tuple[int, int, int, int, int]:
    """The guard table: the strip lengths (L, p1, p2, r1, r2) that the
    move's surgery measures on a tuple with q0 != 0.

    L is the length of the cross block; p1, r1 and p2, r2 are the runs
    before and after it on the near and far halves of the split C_0.
    The h+q parity condition keeps q0 off h0 and h2, so the four rows
    are exhaustive.
    """
    if q0 < h0 and q0 < h2:
        return (q0, 0, 0, h0 - q0, h2 - q0)
    if q0 > h0 and q0 > h2:
        return (h0 + h2 - q0, q0 - h2, q0 - h0, 0, 0)
    if h0 < q0 < h2:
        return (h0, 0, q0 - h0, 0, h2 - q0)
    return (h2, q0 - h2, 0, h0 - q0, 0)  # h2 < q0 < h0


def _rebuild(h0: int, h1: int, h2: int, q1: int, q2: int, strips: tuple) -> tuple:
    """The moved tuple read off the strips of (h; q): its shifts are not
    yet reduced mod the new cycle lengths."""
    L, p1, p2, r1, r2 = strips
    return (
        h0 + h1 - L, L, h1 + h2 - L,
        h1 + r1 + r2, 2 * p1 + q1 + h1 + L, 2 * p2 + q2 + h1 + L,
    )


def _move(h0: int, h1: int, h2: int, q0: int, q1: int, q2: int) -> tuple:
    """The move's rewriting of an admissible (h; q) with q0 != 0, shifts
    not yet reduced."""
    return _rebuild(h0, h1, h2, q1, q2, _strips(h0, h2, q0))


def delta(f: SixTuple) -> int:
    """Complexity change of the move: upsilon(sigma(f)) - upsilon(f),
    which is h1 - L for the cross-block length L of the guard table.

    Proves f admissible: the h+q parity condition makes the guard table
    exhaustive.
    """
    require_admissible(f)
    if f.q0 == 0:
        return 0
    return f.h1 - _strips(f.h0, f.h2, f.q0)[0]


def sigma(f: SixTuple) -> SixTuple:
    """The 2-symmetric move.  Identity when q0 = 0, otherwise the tuple
    rebuilt from the guard table's strips (_move); an involution that
    commutes with psi2 and psi3."""
    require_admissible(f)
    if f.q0 == 0:
        return f
    return f._image(SixTuple.reduce(*_move(f.h0, f.h1, f.h2, f.q0, f.q1, f.q2)))


def _neighbour_fields(base: tuple) -> list[tuple]:
    """sigma_neighbors of the canonical int 6-tuple base, as sorted int
    6-tuples.  base must be admissible and is not checked: the move
    keeps admissibility, so a walk that proved its start (explore) need
    not prove the tuples it reaches.

    The rotations psi1 and psi1^2 are index permutations that carry each
    q_i with its modulus, so they need no reduction; a rotation with
    q0 = 0 is fixed by the move.
    """
    h0, h1, h2, q0, q1, q2 = base
    out = set()
    for g in (base, (h1, h2, h0, q1, q2, q0), (h2, h0, h1, q2, q0, q1)):
        if g[3]:
            moved = SixTuple.reduce(*_move(*g))
            out.add(_canonical_fields(moved.h, moved.q))
    out.discard(base)
    return sorted(out)


def sigma_neighbors(f: SixTuple) -> list[SixTuple]:
    """Canonical forms reachable by one move from any rotation of f,
    excluding f's own canonical form; sorted.

    Admissibility is constant on relabelling orbits, so it is proved on
    the canonical form, whose proof the neighbours inherit.
    """
    base = _canonical_fields(f.h, f.q)
    c = f._image(SixTuple._trusted(base))
    require_admissible(c)
    return [c._image(SixTuple._trusted(g)) for g in _neighbour_fields(base)]
