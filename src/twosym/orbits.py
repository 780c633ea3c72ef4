"""Trap detection, minimality, roots and bounded orbit exploration.

The move ``sigma`` together with the relabelling maps generates a group
whose orbits collect all tuples encoding the same manifold.  A *trap* is
a tuple whose whole move orbit is finite: some relabelling image has the
shape (r, r, s; q0, 0, q2) with every iterate of the shifts confined to
the set {0, r+1, ..., s-1} mod r+s, so every move lands back in the same
relabelling orbit.  Every non-trap orbit is infinite, and this module
produces the certificate: a same-complexity relabelling image on which
the move strictly increases complexity.

Within an orbit the canonical tuples of least complexity are called
*minimal*; a minimal tuple that is the unique minimal member of its
orbit is a *root*.  Both notions have closed-form tests on the canonical
coordinates, plus slower move-based forms used as cross-checks.
explore() walks the orbit graph breadth-first within complexity and node
bounds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .moves import canonical, delta, h_orbit, psi1, psi2, sigma, sigma_neighbors
from .tuples import SixTuple, require_admissible, zero_q_count


def _rotations(f: SixTuple) -> tuple[SixTuple, SixTuple, SixTuple]:
    return (f, psi1(f), psi1(psi1(f)))


def _require_canonical(f: SixTuple, who: str) -> None:
    if canonical(f) != f:
        raise ValueError(f"{who} needs a canonical tuple, got {f}")


# -- traps -------------------------------------------------------------------


@dataclass(frozen=True)
class TrapWitness:
    """Certificate that a tuple's move orbit is finite.

    base is a relabelling image of shape (r, r, s; q0, 0, q2) whose two
    shifts stay inside the confinement set T = {0, r+1, ..., s-1} under
    every translation by d = gcd(q0 + q2, r + s), all taken mod r + s.
    Stepping by d covers the same residues as stepping by q0 + q2, so
    checking k = 0, ..., (r+s)/d - 1 settles every iterate at once.
    """

    r: int
    s: int
    base: SixTuple
    d: int
    T: frozenset[int]

    def __post_init__(self) -> None:
        r, s, base = self.r, self.s, self.base
        if not 0 < r <= s:
            raise ValueError(f"need 0 < r <= s, got ({r}, {s})")
        if base.h != (r, r, s) or base.q1 != 0:
            raise ValueError(f"{base} does not have shape ({r},{r},{s};q0,0,q2)")
        n = r + s
        if self.d != math.gcd(base.q0 + base.q2, n):
            raise ValueError("d is not gcd(q0 + q2, r + s)")
        if self.T != frozenset({0, *range(r + 1, s)}):
            raise ValueError("T is not {0, r+1, ..., s-1}")
        for k in range(n // self.d):
            for q in (base.q0, base.q2):
                if (q + k * self.d) % n not in self.T:
                    raise ValueError(f"shift {q} escapes T at step {k}")


def is_trap(f: SixTuple) -> TrapWitness | None:
    """First witness that f's move orbit is finite, or None.

    Every relabelling image of the matching shape is tested before f is
    declared trap-free; the orbit is scanned in sorted order so the
    returned witness is deterministic.
    """
    for g in h_orbit(f):
        if g.h0 != g.h1 or g.h0 > g.h2 or g.q1 != 0:
            continue
        r, s = g.h0, g.h2
        n = r + s
        d = math.gcd(g.q0 + g.q2, n)
        T = frozenset({0, *range(r + 1, s)})
        if all(
            (q + k * d) % n in T for k in range(n // d) for q in (g.q0, g.q2)
        ):
            return TrapWitness(r, s, g, d, T)
    return None


# -- minimality and roots ----------------------------------------------------


def descent_minimal(f: SixTuple) -> bool:
    """Move-based minimality: no rotation of f admits a move that drops
    the complexity."""
    return all(delta(g) >= 0 for g in _rotations(f))


def descent_root(f: SixTuple) -> bool:
    """Move-based root test: every rotation whose move leaves the
    relabelling orbit strictly gains complexity."""
    base = canonical(f)
    for g in _rotations(base):
        if canonical(sigma(g)) != base and delta(g) <= 0:
            return False
    return True


def is_minimal(f: SixTuple) -> bool:
    """Whether no tuple in f's move orbit has lower complexity.

    Closed form on the canonical coordinates: q2 < h0, or
    q2 > h1 + h2 - h0, or h0 = h1 < q2 < h2.  The minimality-agreement
    suite checks it against descent_minimal.
    """
    _require_canonical(f, "is_minimal")
    require_admissible(f)
    h0, h1, h2 = f.h
    q2 = f.q2
    return q2 < h0 or q2 > h1 + h2 - h0 or (h0 == h1 and h0 < q2 < h2)


def is_root(f: SixTuple) -> bool:
    """Whether f is the unique least-complexity canonical tuple of its
    move orbit.

    A minimal tuple fails to be a root exactly when, with m = h0 + h2
    (the common shift modulus once h0 = h1) and writing negations mod m:
    either h0 = h1 < q2 < h2 with q2 distinct from -q0 and (h0+h2)/2 and
    (when q1 = 0) from (h0+h2)/2 - q0, or the same with the roles of q0
    and q2 exchanged.  The minimality-agreement suite checks it against
    descent_root.
    """
    _require_canonical(f, "is_root")
    require_admissible(f)
    h0, h1, h2 = f.h
    q0, q1, q2 = f.q
    m = h0 + h2
    half = m // 2  # the h's share a parity, so m is even
    tied = (
        h0 == h1
        and h0 < q2 < h2
        and q2 != (-q0) % m
        and q2 != half
        and (q1 != 0 or q2 != (half - q0) % m)
    ) or (
        h0 == h1
        and h0 < q0 < h2
        and q0 != (-q2) % m
        and q0 != half
        and (q1 != 0 or q0 != (half - q2) % m)
    )
    return is_minimal(f) and not tied


def minimize(f: SixTuple) -> SixTuple:
    """Greedy descent to a minimal canonical tuple in f's move orbit.

    Repeatedly canonicalises and, while some rotation admits a
    complexity-decreasing move, applies it.  Complexity strictly drops
    at each step, so the loop terminates at a minimal tuple.
    """
    require_admissible(f)
    f = canonical(f)
    while True:
        for g in _rotations(f):
            if delta(g) < 0:
                f = canonical(sigma(g))
                break
        else:
            return f


# -- ascent witnesses ---------------------------------------------------------


def ascend_witness(f: SixTuple) -> SixTuple:
    """A same-complexity relabelling image of f on which the move gains
    complexity, certifying that f's move orbit is infinite.

    Requires f canonical, admissible, not a trap, and with at most one
    vanishing shift (two vanishing shifts mean the tuple encodes a lower
    genus and the growth argument does not apply).  If f itself gains,
    it is returned; otherwise a rotation when q1 is nonzero; otherwise f
    has the shape (h0, h0, h2; q0, 0, q2) and the zig-zag
    move-then-rotate chain that keeps complexity constant is walked
    until one of its two strands leaves the confinement set.
    """
    _require_canonical(f, "ascend_witness")
    require_admissible(f)
    if zero_q_count(f) > 1:
        raise ValueError(f"{f} has two vanishing shifts, no growth witness")
    if is_trap(f) is not None:
        raise ValueError(f"{f} is a trap, its orbit is finite")

    witness: SixTuple | None = None
    if delta(f) > 0:
        witness = f
    elif f.q1 != 0:
        witness = psi1(f)
    else:
        # here delta(f) = 0 with q0 != 0 forces h0 = h1 and q0 strictly
        # between h0 and h2, the confined shape
        n = f.h0 + f.h2
        d = math.gcd(f.q0 + f.q2, n)
        strands = [f, psi1(psi2(f))]
        for _ in range(n // d):
            for g in strands:
                if delta(g) > 0:
                    witness = g
                    break
            if witness is not None:
                break
            strands = [psi1(psi2(sigma(g))) for g in strands]
    if witness is None:
        raise ValueError(f"confinement escape missing for non-trap {f}")
    if witness.upsilon != f.upsilon or delta(witness) <= 0:
        raise ValueError(f"witness {witness} does not certify growth of {f}")
    return witness


# -- orbit exploration ---------------------------------------------------------


@dataclass(frozen=True)
class OrbitGraph:
    """Bounded breadth-first picture of a move orbit.

    Nodes are canonical admissible tuples, edges the unordered pairs
    related by a move on some rotation (stored once, smaller node
    first).  frontier holds the nodes with unexplored neighbours —
    either a neighbour's complexity exceeded the bound, or the node
    budget ran out (then truncated is set).  closed means the whole
    orbit was seen.
    """

    start: SixTuple
    nodes: tuple[SixTuple, ...]
    edges: tuple[tuple[SixTuple, SixTuple], ...]
    frontier: tuple[SixTuple, ...]
    truncated: bool

    def __post_init__(self) -> None:
        degree: dict[SixTuple, int] = {}
        for a, b in self.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        worst = max(degree.values(), default=0)
        if worst > 3:
            raise ValueError(f"orbit graph has a node of degree {worst}")

    @property
    def closed(self) -> bool:
        return not self.frontier and not self.truncated

    def degree(self, f: SixTuple) -> int:
        return sum(1 for e in self.edges if f in e)


def explore(
    f: SixTuple, max_complexity: int, max_nodes: int = 10_000
) -> OrbitGraph:
    """Breadth-first walk of f's move orbit within the given bounds.

    Neighbours beyond max_complexity are not entered (their source is
    marked frontier); once max_nodes tuples are collected no new ones
    are added and the graph is marked truncated.  A closed result is the
    complete orbit, which every trap must reach.
    """
    require_admissible(f)
    start = canonical(f)
    nodes = {start}
    edges: set[tuple[SixTuple, SixTuple]] = set()
    frontier: set[SixTuple] = set()
    truncated = False
    queue = deque([start])
    while queue:
        g = queue.popleft()
        for nb in sigma_neighbors(g):
            if nb.upsilon > max_complexity:
                frontier.add(g)
                continue
            if nb not in nodes:
                if len(nodes) >= max_nodes:
                    truncated = True
                    frontier.add(g)
                    continue
                nodes.add(nb)
                queue.append(nb)
            edges.add((min(g, nb), max(g, nb)))
    return OrbitGraph(
        start,
        tuple(sorted(nodes)),
        tuple(sorted(edges)),
        tuple(sorted(frontier)),
        truncated,
    )
