"""Constructive surgery behind the 2-symmetric move.

Splitting the cycle C_0 of the graph of f with an inserted ladder of h1
rungs produces a bigger graph whose colour-3 residues fall into two
pieces.  Exactly four gluing blocks tie the four {0,1}-cycles across the
two pieces: the inserted ladder, its mate between C_1 and C_2, and the
two cross blocks (C_1 to the far half of C_0, and the near half to C_2).
Cancelling the inserted ladder restores the original graph exactly;
cancelling a cross block produces the graph of the moved tuple.  The
five strip lengths (L, p1, p2, r1, r2) measured on the split cycles
determine the moved tuple arithmetically and are checked against the
guard table.

One subtlety is orientation.  The split graph carries an involution
that exchanges C_1 with the near half and C_2 with the far half; it
maps each block to its mate, but it necessarily swaps colours 0 and 1,
because the ladder positions shift the cycle parity (condition
"h_i + q_i odd" makes the shift odd).  Swapping colours 0 and 1 renames
every tuple read off the graph by negating its q entries, i.e. by
reversing the orientation of the three {0,1}-cycles.  Consequently one
of the two cross blocks cancels to the moved graph with colours intact
while the other yields the reversed-orientation copy, and which is
which depends only on the parity of the moved tuple's q entries.  The
verifier locates the exact one and records the swap needed by the
other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    COLOURS,
    Block,
    ColouredGraph,
    cancel_block,
    cp_isomorphic,
    find_gluing_blocks,
    permute_colours,
)
from .moves import sigma
from .tuples import SixTuple, build_graph, require_admissible

SWAP_01 = (1, 0, 2, 3)
SWAP_23 = (0, 1, 3, 2)
REORIENTATIONS = ((0, 1, 2, 3), SWAP_01, SWAP_23, (1, 0, 3, 2))


class SurgeryError(ValueError):
    """A structural expectation of the surgery failed."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def table_row(f: SixTuple) -> tuple[int, int, int, int, int]:
    """Expected strip lengths (L, p1, p2, r1, r2) for the guard of f."""
    h0, _, h2 = f.h
    q0 = f.q0
    if q0 == 0:
        raise ValueError("the move is the identity when q0 = 0")
    if q0 < h0 and q0 < h2:
        return (q0, 0, 0, h0 - q0, h2 - q0)
    if q0 > h0 and q0 > h2:
        return (h0 + h2 - q0, q0 - h2, q0 - h0, 0, 0)
    if h0 < q0 < h2:
        return (h0, 0, q0 - h0, 0, h2 - q0)
    return (h2, q0 - h2, 0, h0 - q0, 0)


@dataclass(frozen=True)
class SurgeryTrace:
    """The split graph with its located blocks and measured strips."""

    base: SixTuple
    graph: ColouredGraph
    ladder: Block  # inserted, between the two halves of C_0
    ladder_mate: Block  # between C_1 and C_2
    theta: Block  # unique gluing block C_1 <-> far half of C_0
    theta_mate: Block  # unique gluing block near half of C_0 <-> C_2
    c0_near: tuple[int, ...]  # oriented half cycle through (0,0)
    c0_far: tuple[int, ...]  # oriented half cycle through (0,h0)
    measured: tuple[int, int, int, int, int]  # (L, p1, p2, r1, r2)


def _gaps(
    cycle: tuple[int, ...], inserted: frozenset[int], other: frozenset[int]
) -> tuple[int, int, int]:
    """(p, run, r): walking the oriented cycle from the end of the
    inserted run, p vertices precede the other block's run and r follow
    it before the inserted run starts again."""
    k = len(cycle)
    end = next(
        i
        for i in range(k)
        if cycle[i] in inserted and cycle[(i + 1) % k] not in inserted
    )
    pos = (end + 1) % k
    p = 0
    while cycle[pos] not in other:
        if cycle[pos] in inserted:
            raise SurgeryError("strips", "inserted run is not consecutive")
        p += 1
        pos = (pos + 1) % k
    run = 0
    while cycle[pos] in other:
        run += 1
        pos = (pos + 1) % k
    r = 0
    while cycle[pos] not in inserted:
        if cycle[pos] in other:
            raise SurgeryError("strips", "block run is not consecutive")
        r += 1
        pos = (pos + 1) % k
    return p, run, r


def build_gf(f: SixTuple) -> SurgeryTrace:
    """Insert the h1-rung ladder into the graph of f and locate the
    resulting gluing blocks.  Requires an admissible f with q0 != 0."""
    require_admissible(f)
    if f.q0 == 0:
        raise ValueError("surgery needs q0 != 0 (the move is the identity)")
    g = build_graph(f)
    h0, h1, h2 = f.h
    two_l = [f.two_l(i) for i in range(3)]
    off = [0, two_l[0], two_l[0] + two_l[1]]

    def idx(i: int, j: int) -> int:
        i %= 3
        return off[i] + j % two_l[i]

    n0 = g.n

    def vp(i: int) -> int:  # near-side rung vertex, 1-based
        return n0 + i - 1

    def vpp(i: int) -> int:  # far-side rung vertex
        return n0 + h1 + i - 1

    rows = [list(g.involutions[c]) + [-1] * (2 * h1) for c in COLOURS]
    labels = (
        list(g.labels)
        + [("ins", 0, i) for i in range(1, h1 + 1)]
        + [("ins", 1, i) for i in range(1, h1 + 1)]
    )
    # split each colour-2 edge (1,i-1)-(2,-i) with the i-th rung pair
    for i in range(1, h1 + 1):
        a, b = idx(1, i - 1), idx(2, -i)
        if rows[2][a] != b:
            raise SurgeryError("ladder", f"no colour-2 edge {a}-{b} to split")
        rows[2][a] = vp(i)
        rows[2][vp(i)] = a
        rows[2][b] = vpp(i)
        rows[2][vpp(i)] = b
    # reroute the colour-1 edge (0,-1)-(0,0) onto the first rung
    u, v = idx(0, -1), idx(0, 0)
    if rows[1][v] != u:
        raise SurgeryError("ladder", f"no colour-1 edge {v}-{u} to reroute")
    rows[1][v] = vp(1)
    rows[1][vp(1)] = v
    rows[1][u] = vpp(1)
    rows[1][vpp(1)] = u
    # reroute the edge (0,h0-1)-(0,h0) onto the last rung; its colour
    # matches the parity of h0
    ca = 0 if h0 % 2 else 1
    x, y = idx(0, h0 - 1), idx(0, h0)
    if rows[ca][x] != y:
        raise SurgeryError("ladder", f"no colour-{ca} edge {x}-{y} to reroute")
    rows[ca][x] = vp(h1)
    rows[ca][vp(h1)] = x
    rows[ca][y] = vpp(h1)
    rows[ca][vpp(h1)] = y
    # ladder interior: colour-3 rungs, alternating side edges
    for i in range(1, h1 + 1):
        rows[3][vp(i)] = vpp(i)
        rows[3][vpp(i)] = vp(i)
    for i in range(1, h1):
        c = 0 if i % 2 else 1
        rows[c][vp(i)] = vp(i + 1)
        rows[c][vp(i + 1)] = vp(i)
        rows[c][vpp(i)] = vpp(i + 1)
        rows[c][vpp(i + 1)] = vpp(i)
    big = ColouredGraph(tuple(tuple(r) for r in rows), tuple(labels))

    # the split halves of C_0, oriented with ascending j
    c0_near = tuple([idx(0, j) for j in range(h0)] + [vp(i) for i in range(h1, 0, -1)])
    c0_far = tuple(
        [idx(0, j) for j in range(h0, two_l[0])] + [vpp(i) for i in range(1, h1 + 1)]
    )
    for cyc in (c0_near, c0_far):
        for t in range(len(cyc)):
            a, b = cyc[t], cyc[(t + 1) % len(cyc)]
            if big.adj(0, a) != b and big.adj(1, a) != b:
                raise SurgeryError("split", "expected half cycle is not a cycle")

    pieces = big.hat(3)
    if len(pieces) != 2:
        raise SurgeryError("pieces", f"{len(pieces)} colour-3 complements (need 2)")

    res_idx = big.residue_index((0, 1))
    n_res = len(big.residues((0, 1)))
    if n_res != 4:
        raise SurgeryError("split", f"{n_res} {{0,1}}-cycles (need 4)")
    ids = {
        "near": res_idx[idx(0, 0)],
        "far": res_idx[idx(0, h0)],
        "c1": res_idx[idx(1, 0)],
        "c2": res_idx[idx(2, 0)],
    }

    by_pair: dict[frozenset[int], list[Block]] = {}
    for b in find_gluing_blocks(big, (0, 1), 3):
        pair = frozenset((res_idx[b.side_a[0]], res_idx[b.side_b[0]]))
        by_pair.setdefault(pair, []).append(b)

    def unique(name_a: str, name_b: str) -> Block:
        found = by_pair.get(frozenset((ids[name_a], ids[name_b])), [])
        if len(found) != 1:
            raise SurgeryError(
                "blocks", f"{len(found)} gluing blocks between {name_a} and {name_b}"
            )
        return found[0]

    ladder = unique("near", "far")
    ladder_mate = unique("c1", "c2")
    theta = unique("c1", "far")
    theta_mate = unique("near", "c2")
    if sum(len(v) for v in by_pair.values()) != 4:
        raise SurgeryError("blocks", "unexpected extra gluing blocks")
    if ladder.vertices != frozenset(range(n0, n0 + 2 * h1)):
        raise SurgeryError("blocks", "inserted ladder not recovered as a block")
    if ladder_mate.length != h1:
        raise SurgeryError("blocks", "mate ladder has wrong length")

    near_set, far_set = frozenset(c0_near), frozenset(c0_far)
    theta_far = frozenset(theta.vertices) & far_set
    mate_near = frozenset(theta_mate.vertices) & near_set
    p2, run2, r2 = _gaps(c0_far, frozenset(vpp(i) for i in range(1, h1 + 1)), theta_far)
    p1, run1, r1 = _gaps(c0_near, frozenset(vp(i) for i in range(1, h1 + 1)), mate_near)
    if run2 != theta.length or run1 != theta_mate.length or run1 != run2:
        raise SurgeryError("strips", "block runs do not match block lengths")
    measured = (theta.length, p1, p2, r1, r2)
    return SurgeryTrace(
        f, big, ladder, ladder_mate, theta, theta_mate, c0_near, c0_far, measured
    )


def reorientation_involution(trace: SurgeryTrace) -> list[int]:
    """The vertex involution of the split graph exchanging C_1 with the
    near half of C_0 and C_2 with the far half.

    Positions along the halves are counted so that the i-th near rung
    vertex sits q1+h1-i steps around its cycle and the i-th far rung
    vertex q2+i-1 steps around its own; matching these positions with
    the plain labels of C_1 and C_2 pairs every vertex.  The result is
    an automorphism up to swapping colours 0 and 1 (checked by the
    verifier, not here)."""
    f = trace.base
    h0, h1, h2 = f.h
    _, q1, q2 = f.q
    l1, l2 = h0 + h1, h1 + h2
    g = trace.graph
    pos: dict[object, int] = {}
    for v in range(g.n):
        pos[g.label(v)] = v

    def near(i: int) -> int:
        return pos[("ins", 0, i)]

    def far(i: int) -> int:
        return pos[("ins", 1, i)]

    phi = [-1] * g.n
    for j in range(h0):
        phi[pos[(0, j)]] = pos[(1, (q1 + h1 + j) % l1)]
    for i in range(1, h1 + 1):
        phi[near(i)] = pos[(1, (q1 + h1 - i) % l1)]
    for i in range(l1):
        k = (q1 + h1 - i) % l1
        phi[pos[(1, i)]] = near(k) if 1 <= k <= h1 else pos[(0, (i - q1 - h1) % l1)]
    # the far pairing shifts by h2 because C_2 is read from its own
    # block corner rather than from (2,0)
    for k in range(h2):
        phi[pos[(0, h0 + k)]] = pos[(2, (q2 + h1 + k + h2) % l2)]
    for i in range(1, h1 + 1):
        phi[far(i)] = pos[(2, (q2 + i - 1 + h2) % l2)]
    for j in range(l2):
        i = (j - h2 - q2 + 1) % l2
        phi[pos[(2, j)]] = far(i) if 1 <= i <= h1 else pos[(0, h0 + (j - h2 - q2 - h1) % l2)]
    return phi


@dataclass(frozen=True)
class SigmaVerification:
    """Outcome of checking the move against its surgery."""

    base: SixTuple
    expected: SixTuple
    expected_row: tuple[int, int, int, int, int]
    measured_row: tuple[int, int, int, int, int] | None
    exact_block: str | None  # which cross block cancels to the moved graph
    orientation_swap: tuple[int, int, int, int] | None  # colour swap for the other
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_sigma_constructively(f: SixTuple) -> SigmaVerification:
    """Check that the arithmetic move agrees with the surgery:

    - cancelling the inserted ladder restores the graph of f exactly,
    - the half-exchanging involution is an automorphism up to swapping
      colours 0/1, and it carries each block to its mate, so cancelling
      the mate ladder restores the orientation-reversed copy of f,
    - one of the two cross blocks cancels to the graph of sigma(f) with
      colours intact; the other one matches after a reorientation swap,
    - the measured strips match the guard table and reconstruct sigma(f).
    """
    expected = sigma(f)
    expected_row = table_row(f)
    failures: list[str] = []
    try:
        trace = build_gf(f)
    except (SurgeryError, ValueError) as e:
        return SigmaVerification(f, expected, expected_row, None, None, None, (str(e),))

    if trace.graph.n != 2 * f.upsilon + 2 * f.h1:
        failures.append("vertex count of the split graph is wrong")
    base_graph = build_graph(f)
    moved_graph = build_graph(expected)

    phi = reorientation_involution(trace)
    g = trace.graph
    if sorted(phi) != list(range(g.n)) or any(phi[phi[v]] != v for v in range(g.n)):
        failures.append("half exchange is not an involution of the vertices")
    else:
        for c in COLOURS:
            cc = SWAP_01[c]
            if any(phi[g.adj(c, v)] != g.adj(cc, phi[v]) for v in range(g.n)):
                failures.append(
                    f"half exchange does not carry colour {c} to colour {cc}"
                )
        for blk, mate, name in (
            (trace.ladder, trace.ladder_mate, "ladder"),
            (trace.theta, trace.theta_mate, "cross block"),
        ):
            if frozenset(phi[v] for v in blk.vertices) != mate.vertices:
                failures.append(f"half exchange does not pair the {name} with its mate")

    if cp_isomorphic(cancel_block(g, trace.ladder), base_graph) is None:
        failures.append("cancelling the inserted ladder does not restore the base")
    mate_cancelled = cancel_block(g, trace.ladder_mate)
    if cp_isomorphic(mate_cancelled, permute_colours(base_graph, SWAP_01)) is None:
        failures.append(
            "cancelling the mate ladder does not yield the reversed base copy"
        )

    cross = cancel_block(g, trace.theta)
    exact_block: str | None = None
    orientation_swap: tuple[int, int, int, int] | None = None
    if cp_isomorphic(cross, moved_graph) is not None:
        exact_block = "cross"
        cross_mate = cancel_block(g, trace.theta_mate)
        orientation_swap = next(
            (
                p
                for p in REORIENTATIONS
                if cp_isomorphic(permute_colours(cross_mate, p), moved_graph)
            ),
            None,
        )
        if orientation_swap is None:
            failures.append("mate cross block matches no reorientation of the move")
    else:
        cross_mate = cancel_block(g, trace.theta_mate)
        if cp_isomorphic(cross_mate, moved_graph) is not None:
            exact_block = "cross mate"
            orientation_swap = next(
                (
                    p
                    for p in REORIENTATIONS
                    if cp_isomorphic(permute_colours(cross, p), moved_graph)
                ),
                None,
            )
            if orientation_swap is None:
                failures.append("cross block matches no reorientation of the move")
        else:
            failures.append("no cross block cancels to the moved graph")

    if trace.measured != expected_row:
        failures.append(
            f"measured strips {trace.measured} differ from table {expected_row}"
        )
    L, p1, p2, r1, r2 = trace.measured
    if L < 1:
        failures.append("cross block is empty despite q0 != 0")
    if (p1 != 0) != (r2 == 0) or (p2 != 0) != (r1 == 0):
        failures.append("strip emptiness pattern violated")
    h0, h1, h2 = f.h
    _, q1, q2 = f.q
    rebuilt = SixTuple.reduce(
        h0 + h1 - L, L, h1 + h2 - L,
        h1 + r1 + r2, 2 * p1 + q1 + h1 + L, 2 * p2 + q2 + h1 + L,
    )
    if rebuilt != expected:
        failures.append(f"strips rebuild {rebuilt} instead of {expected}")
    return SigmaVerification(
        f,
        expected,
        expected_row,
        trace.measured,
        exact_block,
        orientation_swap,
        tuple(failures),
    )
