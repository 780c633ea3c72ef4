"""Constructive surgery behind the 2-symmetric move.

Splitting the cycle C_0 of the graph of f with an inserted ladder of h1
rungs produces a bigger graph whose colour-3 residues fall into two
pieces.  Exactly four gluing blocks tie the four {0,1}-cycles across the
two pieces: the inserted ladder, its mate between C_1 and C_2, and the
two cross blocks (C_1 to the far half of C_0, and the near half to C_2).
Cancelling the inserted ladder restores the original graph exactly;
cancelling a cross block produces the graph of the moved tuple.  The
five strip lengths (L, p1, p2, r1, r2) measured on the split cycles
are checked against the move's guard table (moves._strips, through
table_row), and the moved tuple is rebuilt from them by the formula the
move itself uses (moves._rebuild).

One subtlety is orientation.  The split graph carries an involution
that exchanges C_1 with the near half and C_2 with the far half; it
maps each block to its mate, but it necessarily swaps colours 0 and 1,
because the ladder positions shift the cycle parity (condition
"h_i + q_i odd" makes the shift odd).  Swapping colours 0 and 1 renames
every tuple read off the graph by negating its q entries, i.e. by
reversing the orientation of the three {0,1}-cycles.  Consequently the
two cross blocks cancel to graphs that differ by that swap.  Which of
them cancels to the moved graph with colours intact is not fixed by
the parity of the q entries: both cases occur at either parity.  The
verifier tries the cross block, then its mate; the first that cancels
to the graph of sigma(f) is recorded as the exact block.  Its partner
has two possible outcomes: the identity when it cancels exactly too,
and otherwise SWAP_01.  No other colour swap needs a look: a verified
half exchange swaps colours 0 and 1 and pairs the two cross blocks, so
it carries the exact block's match onto a SWAP_01 match of the partner.

Only two matches are searched for (graphs._cp_search, the search behind
graphs.cp_isomorphic): each cross block's cancellation against the graph
of sigma(f), once each.  The others are checked against a map the
construction already knows (graphs._is_cp_map), in one pass and more
strictly than a search:

- the inserted ladder occupies the vertices after those of f's graph,
  so its cancellation must be that graph array for array and label for
  label;
- the half exchange, once verified as an involution that swaps colours
  0/1 and pairs each block with its mate, maps the vertices kept by the
  mate ladder's cancellation onto the colour-swapped graph of f;
- the partner cross block, unless its own search matched, matches
  under SWAP_01 through the exact block's isomorphism after the half
  exchange.

A half exchange that fails any of its checks fails the mate ladder's
check, and the partner's unless it cancels exactly; neither falls back
to a search.

The split graph's vertices are numbered in one place (_split_layout):
the graph of f first, then the near and the far rung vertices.  build_gf
builds the graph on that layout and reorientation_involution reads its
positions from it, with no lookup by label.  Each partition of the
split graph is computed once per tuple: build_gf indexes its
{0,1}-cycles and its colour-3 complements (the hat-3 components, whose
count must be 2) and hands both indices to the block finder, which
walks every colour-3 rung once.  The moved graph's vertex
signatures are likewise computed once and shared by the cross-block
searches (graphs._cp_search).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    COLOURS,
    Block,
    ColouredGraph,
    _cp_search,
    _find_blocks,
    _is_cp_map,
    _kept,
    _signatures,
    cancel_block,
    permute_colours,
)
from .moves import _rebuild, _strips, sigma
from .tuples import SixTuple, build_graph, require_admissible

SWAP_01 = (1, 0, 2, 3)


class SurgeryError(ValueError):
    """A structural expectation of the surgery failed."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def table_row(f: SixTuple) -> tuple[int, int, int, int, int]:
    """Expected strip lengths (L, p1, p2, r1, r2): the row of the move's
    guard table (moves._strips) for f."""
    if f.q0 == 0:
        raise ValueError("the move is the identity when q0 = 0")
    return _strips(f.h0, f.h2, f.q0)


@dataclass(frozen=True)
class SurgeryTrace:
    """The split graph with its located blocks and measured strips."""

    base: SixTuple
    base_graph: ColouredGraph  # the graph of base, before the split
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


def _split_layout(f: SixTuple):
    """The vertex numbering of the split graph of f, as three functions:
    idx(i, j) is the vertex (i, j mod 2l_i) of the graph of f, and vp(k)
    and vpp(k) are the near-side and far-side vertices of the k-th rung
    (1-based), numbered after the vertices of the graph of f."""
    two_l = [f.two_l(i) for i in range(3)]
    off = (0, two_l[0], two_l[0] + two_l[1])
    n0 = 2 * f.upsilon
    h1 = f.h1

    def idx(i: int, j: int) -> int:
        return off[i] + j % two_l[i]

    def vp(k: int) -> int:
        return n0 + k - 1

    def vpp(k: int) -> int:
        return n0 + h1 + k - 1

    return idx, vp, vpp


def build_gf(f: SixTuple) -> SurgeryTrace:
    """Insert the h1-rung ladder into the graph of f and locate the
    resulting gluing blocks.  Requires an admissible f with q0 != 0."""
    require_admissible(f)
    if f.q0 == 0:
        raise ValueError("surgery needs q0 != 0 (the move is the identity)")
    g = build_graph(f)
    h0, h1, h2 = f.h
    idx, vp, vpp = _split_layout(f)
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
        [idx(0, j) for j in range(h0, f.two_l(0))] + [vpp(i) for i in range(1, h1 + 1)]
    )
    for cyc in (c0_near, c0_far):
        for t in range(len(cyc)):
            a, b = cyc[t], cyc[(t + 1) % len(cyc)]
            if big.adj(0, a) != b and big.adj(1, a) != b:
                raise SurgeryError("split", "expected half cycle is not a cycle")

    # each partition is computed once, here, and handed to the block finder
    hat_idx = big.residue_index((0, 1, 2))
    pieces = max(hat_idx) + 1
    if pieces != 2:
        raise SurgeryError("pieces", f"{pieces} colour-3 complements (need 2)")

    res_idx = big.residue_index((0, 1))
    n_res = max(res_idx) + 1
    if n_res != 4:
        raise SurgeryError("split", f"{n_res} {{0,1}}-cycles (need 4)")
    ids = {
        "near": res_idx[idx(0, 0)],
        "far": res_idx[idx(0, h0)],
        "c1": res_idx[idx(1, 0)],
        "c2": res_idx[idx(2, 0)],
    }

    by_pair: dict[frozenset[int], list[Block]] = {}
    for b in _find_blocks(big, (0, 1), 3, res_idx, hat_idx):
        if not b.gluing:
            continue
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
    if ladder.vertices != frozenset(range(g.n, big.n)):
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
        f, g, big, ladder, ladder_mate, theta, theta_mate, c0_near, c0_far, measured
    )


def _through_half_exchange(
    g: ColouredGraph, phi: list[int], partner: Block, exact: Block, chi: list[int]
) -> list[int]:
    """chi after phi, on the vertices that cancel_block(g, partner) keeps:
    phi carries them to those cancel_block(g, exact) keeps, and chi maps
    that cancelled graph on.  A vertex phi sends elsewhere maps to -1."""
    chi_of = [-1] * g.n
    for v, image in zip(_kept(g, exact), chi):
        chi_of[v] = image
    return [chi_of[phi[u]] for u in _kept(g, partner)]


def reorientation_involution(trace: SurgeryTrace) -> list[int]:
    """The vertex involution of the split graph exchanging C_1 with the
    near half of C_0 and C_2 with the far half.

    Positions along the halves are counted so that the i-th near rung
    vertex sits q1+h1-i steps around its cycle and the i-th far rung
    vertex q2+i-1 steps around its own; matching these positions with
    those of C_1 and C_2 in the split layout pairs every vertex.  The
    result is an automorphism up to swapping colours 0 and 1 (checked by
    the verifier, not here)."""
    f = trace.base
    h0, h1, h2 = f.h
    _, q1, q2 = f.q
    l1, l2 = h0 + h1, h1 + h2  # the lengths of C_1 and C_2
    idx, near, far = _split_layout(f)
    phi = [-1] * trace.graph.n
    for j in range(h0):
        phi[idx(0, j)] = idx(1, q1 + h1 + j)
    for i in range(1, h1 + 1):
        phi[near(i)] = idx(1, q1 + h1 - i)
    # a C_0 position read off C_1 (or C_2) is reduced mod that cycle's
    # length, not mod the length of C_0 that idx would use
    for i in range(l1):
        k = (q1 + h1 - i) % l1
        phi[idx(1, i)] = near(k) if 1 <= k <= h1 else idx(0, (i - q1 - h1) % l1)
    # the far pairing shifts by h2 because C_2 is read from its own
    # block corner rather than from (2,0)
    for k in range(h2):
        phi[idx(0, h0 + k)] = idx(2, q2 + h1 + k + h2)
    for i in range(1, h1 + 1):
        phi[far(i)] = idx(2, q2 + i - 1 + h2)
    for j in range(l2):
        i = (j - h2 - q2 + 1) % l2
        phi[idx(2, j)] = far(i) if 1 <= i <= h1 else idx(0, h0 + (j - h2 - q2 - h1) % l2)
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
      colours intact; the other one does too, or matches under SWAP_01,
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
    base_graph = trace.base_graph
    moved_graph = build_graph(expected)

    phi = reorientation_involution(trace)
    g = trace.graph
    inv = g.involutions
    phi_ok = False
    if sorted(phi) != list(range(g.n)) or any(phi[phi[v]] != v for v in range(g.n)):
        failures.append("half exchange is not an involution of the vertices")
    else:
        phi_ok = True
        for c in COLOURS:
            cc = SWAP_01[c]
            if [phi[w] for w in inv[c]] != [inv[cc][u] for u in phi]:
                phi_ok = False
                failures.append(
                    f"half exchange does not carry colour {c} to colour {cc}"
                )
        for blk, mate, name in (
            (trace.ladder, trace.ladder_mate, "ladder"),
            (trace.theta, trace.theta_mate, "cross block"),
        ):
            if frozenset(phi[v] for v in blk.vertices) != mate.vertices:
                phi_ok = False
                failures.append(f"half exchange does not pair the {name} with its mate")

    # the inserted ladder occupies the vertices from base_graph.n on, so
    # its cancellation must give back the base graph array for array
    if cancel_block(g, trace.ladder) != base_graph:
        failures.append("cancelling the inserted ladder does not restore the base")
    # phi carries the mate ladder onto the inserted one, so it maps the
    # vertices kept by the mate's cancellation onto those of the base
    if not (
        phi_ok
        and _is_cp_map(
            cancel_block(g, trace.ladder_mate),
            permute_colours(base_graph, SWAP_01),
            [phi[u] for u in _kept(g, trace.ladder_mate)],
        )
    ):
        failures.append(
            "cancelling the mate ladder does not yield the reversed base copy"
        )

    # each cross block is searched against the moved graph once; the
    # partner of the exact one matches with colours intact (its own
    # search succeeded) or under SWAP_01 through the verified half
    # exchange, which pairs the two blocks, and in no other way
    blocks = (trace.theta, trace.theta_mate)
    cancelled = [cancel_block(g, b) for b in blocks]
    moved_sig = _signatures(moved_graph)
    found = [_cp_search(h, moved_graph, moved_sig) for h in cancelled]
    exact_block: str | None = None
    orientation_swap: tuple[int, int, int, int] | None = None
    if found[0] is None and found[1] is None:
        failures.append("no cross block cancels to the moved graph")
    else:
        e = 0 if found[0] is not None else 1
        exact_block = ("cross", "cross mate")[e]
        if found[1 - e] is not None:
            orientation_swap = (0, 1, 2, 3)
        elif phi_ok and _is_cp_map(
            permute_colours(cancelled[1 - e], SWAP_01),
            moved_graph,
            _through_half_exchange(g, phi, blocks[1 - e], blocks[e], found[e]),
        ):
            orientation_swap = SWAP_01
        else:
            partner_name = ("mate cross block", "cross block")[e]
            failures.append(f"{partner_name} matches no reorientation of the move")

    if trace.measured != expected_row:
        failures.append(
            f"measured strips {trace.measured} differ from table {expected_row}"
        )
    L, p1, p2, r1, r2 = trace.measured
    if L < 1:
        failures.append("cross block is empty despite q0 != 0")
    if (p1 != 0) != (r2 == 0) or (p2 != 0) != (r1 == 0):
        failures.append("strip emptiness pattern violated")
    rebuilt = SixTuple.reduce(*_rebuild(*f.h, f.q1, f.q2, trace.measured))
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
