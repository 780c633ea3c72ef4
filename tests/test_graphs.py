"""Coloured-graph machinery: residues, dipoles, blocks, embeddings."""

from itertools import combinations

import pytest
from test_sampled import SAMPLE

from twosym import (
    COLOURS,
    Block,
    ColouredGraph,
    build_graph,
    cancel_block,
    cancel_block_by_dipoles,
    cancel_dipole,
    cp_isomorphic,
    embedding_euler,
    find_blocks,
    is_contracted,
    is_gem,
    parse_tuple,
    permute_colours,
    to_dot,
)
from twosym.graphs import _is_cp_map, _signatures, sphere_defects
from twosym.moves import sigma
from twosym.surgery import SWAP_01, build_gf

# the four colour permutations that fix the sides {0,1} and {2,3}
REORIENTATIONS = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2))


def graph(text):
    return build_graph(parse_tuple(text))


def all_anchors_isomorphism(g1, g2):
    """Reference search: anchor vertex 0 of g1 on every vertex of g2 in
    turn and propagate the forced images (the O(n^2) search that
    signature anchoring replaced)."""
    if g1.n != g2.n:
        return None
    if g1.n == 0:
        return []
    if not (g1.is_connected() and g2.is_connected()):
        raise ValueError("expects connected graphs")
    n = g1.n
    for target in range(n):
        phi = [-1] * n
        used = [False] * n
        phi[0] = target
        used[target] = True
        queue = [0]
        ok = True
        while queue and ok:
            v = queue.pop()
            for c in COLOURS:
                a = g1.involutions[c][v]
                b = g2.involutions[c][phi[v]]
                if phi[a] == -1:
                    if used[b]:
                        ok = False
                        break
                    phi[a] = b
                    used[b] = True
                    queue.append(a)
                elif phi[a] != b:
                    ok = False
                    break
        if ok and all(x != -1 for x in phi):
            return phi
    return None


def reference_components(g, colours):
    """Reference walk: the sorted-component search that components and
    residue_index replaced."""
    seen = [False] * g.n
    out = []
    for v0 in range(g.n):
        if seen[v0]:
            continue
        comp = [v0]
        seen[v0] = True
        stack = [v0]
        while stack:
            v = stack.pop()
            for c in colours:
                w = g.involutions[c][v]
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def reference_residue_index(g, colours):
    idx = [-1] * g.n
    for i, cls in enumerate(reference_components(g, colours)):
        for v in cls:
            idx[v] = i
    return idx


def reference_find_blocks(g, side_colours, rung_colour):
    """Reference block finder: the frozenset walk that the stamped array
    walk replaced, with its residue indices taken from the reference
    walk."""
    p, q = side_colours
    res_idx = reference_residue_index(g, (p, q))
    hat_idx = reference_residue_index(g, tuple(c for c in COLOURS if c != rung_colour))

    def neighbour(pair, c):
        # the parallel rung across colour c, when both side edges land
        # on another rung-colour edge
        x2, y2 = g.involutions[c][pair[0]], g.involutions[c][pair[1]]
        return (x2, y2) if g.involutions[rung_colour][x2] == y2 else None

    done = set()
    blocks = []
    for v in range(g.n):
        w = g.involutions[rung_colour][v]
        start = (min(v, w), max(v, w))
        if frozenset(start) in done:
            continue
        # walk in both directions with alternating side colours
        chain = [start]
        rungs = {frozenset(start)}
        closed = False
        for first_c, grow_front in ((p, False), (q, True)):
            cur, c = start, first_c
            while True:
                nxt = neighbour(cur, c)
                if nxt is None or frozenset(nxt) == frozenset(cur):
                    break
                if frozenset(nxt) in rungs:
                    closed = True
                    break
                if grow_front:
                    chain.insert(0, nxt)
                else:
                    chain.append(nxt)
                rungs.add(frozenset(nxt))
                cur = nxt
                c = p if c == q else q
            if closed:
                break
        done |= rungs
        if closed:
            continue
        # orient the two sides consistently along the chain
        side_a = [chain[0][0]]
        side_b = [chain[0][1]]
        for k in range(1, len(chain)):
            step = next(
                c
                for c in (p, q)
                if g.involutions[c][side_a[-1]] in chain[k]
                and g.involutions[rung_colour][g.involutions[c][side_a[-1]]]
                == g.involutions[c][side_b[-1]]
            )
            side_a.append(g.involutions[step][side_a[-1]])
            side_b.append(g.involutions[step][side_b[-1]])
        if res_idx[side_a[0]] == res_idx[side_b[0]]:
            continue
        # normalise the representation: smallest corner first on side_a
        reps = [
            (tuple(side_a), tuple(side_b)),
            (tuple(reversed(side_a)), tuple(reversed(side_b))),
            (tuple(side_b), tuple(side_a)),
            (tuple(reversed(side_b)), tuple(reversed(side_a))),
        ]
        a, b = min(reps)
        blocks.append(
            Block(
                (min(p, q), max(p, q)),
                rung_colour,
                a,
                b,
                gluing=hat_idx[a[0]] != hat_idx[b[0]],
            )
        )
    return sorted(blocks, key=lambda b: (b.side_a, b.side_b))


def is_colour_preserving_bijection(phi, g1, g2):
    return sorted(phi) == list(range(g2.n)) and all(
        phi[g1.involutions[c][v]] == g2.involutions[c][phi[v]]
        for c in COLOURS
        for v in range(g1.n)
    )


def relabelled(g, perm):
    """The graph g with vertex v renamed perm[v]."""
    rows = [[0] * g.n for _ in COLOURS]
    for c in COLOURS:
        for v in range(g.n):
            rows[c][perm[v]] = perm[g.involutions[c][v]]
    return ColouredGraph(tuple(tuple(r) for r in rows), None)


def disjoint_union(g, h):
    return ColouredGraph(
        tuple(
            g.involutions[c] + tuple(w + g.n for w in h.involutions[c])
            for c in COLOURS
        )
    )


def test_basic_residue_structure():
    g = graph("(1,3,3;2,2,2)")
    assert g.n == 14
    assert sorted(len(c) for c in g.residues((0, 1))) == [4, 4, 6]
    assert len(g.residues((2, 3))) == 3
    # contracted: deleting any one colour leaves a single component
    assert [len(g.hat(c)) for c in COLOURS] == [1, 1, 1, 1]
    assert g.is_connected()
    assert g.bipartition() is not None


def test_gem_and_crystallization_flags():
    g = graph("(1,1,1;0,0,0)")
    assert g.n == 6
    assert is_gem(g) and is_contracted(g)
    assert sphere_defects(g) == []
    # five {2,3}-residues: still a gem, no longer contracted
    bad = graph("(3,3,3;0,0,2)")
    assert is_gem(bad)
    assert not is_contracted(bad)


@pytest.mark.parametrize(
    "text,expected",
    [("(1,1,1;0,0,0)", [1, 1, 1]), ("(1,3,3;2,2,2)", [1, 3, 3]),
     ("(2,2,2;3,1,1)", [2, 2, 2])],
)
def test_blocks_match_the_construction(text, expected):
    """One maximal ladder per cycle pair, of length h_i, for both rung
    colours."""
    g = graph(text)
    for rung in (2, 3):
        assert sorted(b.length for b in find_blocks(g, (0, 1), rung)) == expected


def test_blocks_in_a_crystallization_are_not_gluing():
    # a single hat-component means no block can join distinct ones
    g = graph("(1,3,3;2,2,2)")
    assert [b for b in find_blocks(g, (0, 1), 2) if b.gluing] == []


def test_cancel_requires_a_genuine_dipole():
    g = graph("(1,1,1;0,0,0)")
    # vertices 0 and 3 share no edge at all
    with pytest.raises(ValueError):
        cancel_dipole(g, 0, g.involutions[2][g.involutions[0][0]])


def test_colour_permutation_round_trip():
    g = graph("(1,3,3;2,2,2)")
    p = (2, 3, 1, 0)
    inv_p = tuple(p.index(c) for c in COLOURS)
    assert permute_colours(permute_colours(g, p), inv_p).involutions == g.involutions


def block_fields(blocks):
    """Block lists compare without their gluing flags; list them too."""
    return [(b.side_colours, b.rung_colour, b.side_a, b.side_b, b.gluing) for b in blocks]


def test_array_passes_agree_with_the_reference_walks(admissible_upto):
    """On the split graph of every moving admissible tuple up to
    complexity 11 and of every moving sampled tuple, the block finder
    gives the reference's Block lists, gluing flags included, for every
    side pair and rung colour; components, residue_index and
    is_connected agree with the reference walk, also on a disconnected
    graph."""
    tuples = [f for f in admissible_upto(11) if f.q0 != 0]
    tuples += [f for f in SAMPLE if f.q0 != 0]
    graphs = [build_gf(f).graph for f in tuples]
    piece = graph("(1,1,1;0,0,0)")
    graphs.append(disjoint_union(piece, piece))
    subsets = [s for k in (2, 3, 4) for s in combinations(COLOURS, k)]
    blocks = gluing = 0
    for g in graphs:
        for sides in combinations(COLOURS, 2):
            for rung in COLOURS:
                if rung in sides:
                    continue
                found = find_blocks(g, sides, rung)
                assert block_fields(found) == block_fields(
                    reference_find_blocks(g, sides, rung)
                )
                blocks += len(found)
                gluing += sum(b.gluing for b in found)
        for colours in subsets:
            ref = reference_components(g, colours)
            assert g.components(colours) == ref
            idx = g.residue_index(colours)
            assert all(idx[v] == i for i, cls in enumerate(ref) for v in cls)
        assert g.is_connected() == (len(reference_components(g, COLOURS)) == 1)
    assert len(graphs) == 592 + sum(f.q0 != 0 for f in SAMPLE) + 1
    assert not graphs[-1].is_connected()
    assert 0 < gluing < blocks


def test_cp_isomorphic_finds_relabellings():
    g = graph("(1,3,3;2,2,2)")
    assert cp_isomorphic(g, g) is not None
    h = relabelled(g, [(v + 5) % g.n for v in range(g.n)])
    m = cp_isomorphic(g, h)
    assert m is not None and is_colour_preserving_bijection(m, g, h)


def test_cp_isomorphic_respects_colours():
    """Swapping two colour classes changes the graph for an asymmetric
    tuple but not for one whose shifts exhibit the extra symmetry."""
    g = graph("(2,2,2;3,1,1)")
    assert cp_isomorphic(g, permute_colours(g, (1, 0, 2, 3))) is None
    sym = graph("(1,1,3;2,0,2)")
    assert cp_isomorphic(sym, permute_colours(sym, (1, 0, 2, 3))) is not None


def surgery_pairs(f):
    """The pairs the surgery check of f compared by search before it
    checked known maps, in its order: the inserted ladder's and the mate
    ladder's cancellations against the base graph and its colour-swapped
    copy, then each cross block against the moved graph until one
    matches, and its partner under each reorientation until one does."""
    trace = build_gf(f)
    g, base = trace.graph, trace.base_graph
    moved = build_graph(sigma(f))
    yield cancel_block(g, trace.ladder), base
    yield cancel_block(g, trace.ladder_mate), permute_colours(base, SWAP_01)
    cross = cancel_block(g, trace.theta)
    cross_mate = cancel_block(g, trace.theta_mate)
    for exact, partner in ((cross, cross_mate), (cross_mate, cross)):
        yield exact, moved
        if cp_isomorphic(exact, moved) is not None:
            for p in REORIENTATIONS:
                yield permute_colours(partner, p), moved
                if cp_isomorphic(permute_colours(partner, p), moved) is not None:
                    break
            return


def test_cp_isomorphic_agrees_with_all_anchors_on_surgery_pairs(admissible_upto):
    """Every pair the surgery check used to search, for the moving
    admissible tuples up to complexity 11: the signature-anchored search
    finds a map exactly when the all-anchors reference does, and each
    map it returns is a colour-preserving bijection."""
    pairs = [
        pair
        for f in admissible_upto(11)
        if f.q0 != 0
        for pair in surgery_pairs(f)
    ]
    assert len(pairs) == 3154
    found = 0
    for g1, g2 in pairs:
        phi = cp_isomorphic(g1, g2)
        assert (phi is None) == (all_anchors_isomorphism(g1, g2) is None)
        if phi is not None:
            found += 1
            assert is_colour_preserving_bijection(phi, g1, g2)
    assert 0 < found < len(pairs)


def test_cp_isomorphic_anchor_other_than_vertex_0():
    """In this graph vertex 0 shares its signature while vertex 8's is
    unique, so the search anchors vertex 8, not vertex 0."""
    g = graph("(1,3,3;0,0,2)")
    sigs = _signatures(g)
    assert sigs.count(sigs[0]) > 1
    assert sigs.count(sigs[8]) == 1
    assert all(sigs.count(s) > 1 for s in sigs[:8])
    for shift in range(g.n):
        h = relabelled(g, [(v * 3 + shift) % g.n for v in range(g.n)])
        phi = cp_isomorphic(g, h)
        assert phi is not None and is_colour_preserving_bijection(phi, g, h)
    swapped = permute_colours(g, (1, 0, 2, 3))
    assert (cp_isomorphic(g, swapped) is None) == (
        all_anchors_isomorphism(g, swapped) is None
    )


def test_cp_isomorphic_rejects_disconnected_inputs():
    piece = graph("(1,1,1;0,0,0)")
    two_pieces = disjoint_union(piece, piece)
    connected = graph("(2,2,2;1,1,1)")
    assert connected.n == two_pieces.n and connected.is_connected()
    # a propagation succeeds on one piece and leaves the other unmapped
    with pytest.raises(ValueError):
        cp_isomorphic(two_pieces, two_pieces)
    # no anchor succeeds: connectivity is checked before answering None
    with pytest.raises(ValueError):
        cp_isomorphic(two_pieces, connected)
    with pytest.raises(ValueError):
        cp_isomorphic(connected, two_pieces)


def test_cp_isomorphic_size_mismatch():
    assert cp_isomorphic(graph("(1,1,1;0,0,0)"), graph("(1,3,3;2,2,2)")) is None


def test_is_cp_map_checks_every_colour_and_bijectivity():
    g = graph("(2,2,2;3,1,1)")
    identity = list(range(g.n))
    assert _is_cp_map(g, g, identity)
    perm = [(v * 5 + 3) % g.n for v in range(g.n)]
    assert _is_cp_map(g, relabelled(g, perm), perm)
    # colours 0 and 1 agree, 2 and 3 are exchanged
    assert not _is_cp_map(g, permute_colours(g, (0, 1, 3, 2)), identity)
    # a colour-preserving covering of one piece that is not a bijection
    piece = graph("(1,1,1;0,0,0)")
    doubled = disjoint_union(piece, piece)
    fold = [v % piece.n for v in range(doubled.n)]
    assert not _is_cp_map(doubled, doubled, fold)
    assert _is_cp_map(doubled, doubled, list(range(doubled.n)))
    # sizes: graphs of different orders, or a map of the wrong length
    assert not _is_cp_map(piece, g, list(range(piece.n)))
    assert not _is_cp_map(g, g, identity[:-1])
    assert not _is_cp_map(g, g, identity + [g.n])


def test_embedding_euler_characteristics():
    """The colour order (0,2,1,3) pins every admissible graph to the
    genus-two surface; the standard order depends on the tuple."""
    for text in ["(1,1,1;0,0,0)", "(1,3,3;2,2,2)", "(2,2,2;1,1,3)"]:
        assert embedding_euler(graph(text), (0, 2, 1, 3)) == -2
    assert embedding_euler(graph("(1,1,1;0,0,0)"), (0, 1, 2, 3)) == 2
    assert embedding_euler(graph("(1,3,3;2,2,2)"), (0, 1, 2, 3)) == -2


def test_block_welding_routes_agree():
    """Cancelling a ladder wholesale and cancelling it rung by rung as
    dipoles reach the same graph."""
    for text in ["(1,3,3;2,2,2)", "(2,2,2;3,1,1)", "(1,1,3;2,0,2)"]:
        trace = build_gf(parse_tuple(text))
        direct = cancel_block(trace.graph, trace.ladder)
        stepped = cancel_block_by_dipoles(trace.graph, trace.ladder)
        assert direct.involutions == stepped.involutions


def test_to_dot_smoke():
    out = to_dot(graph("(1,1,1;0,0,0)"), name="sphere")
    assert out.startswith("graph sphere {")
    assert out.count("--") == 12  # 4 colours x 3 edges
    assert out.rstrip().endswith("}")
