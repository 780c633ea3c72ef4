"""Edge-coloured graphs encoding closed 3-manifolds (gems).

A gem is a finite 4-regular multigraph whose edges are properly coloured
by 0..3: every vertex meets exactly one edge of each colour.  We store
one fixed-point-free involution per colour, as dense integer arrays.
Bicoloured cycles play the role of faces; a gem encodes a manifold when
every 3-coloured residue is a 2-sphere, and the manifold is orientable
exactly when the graph is bipartite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

COLOURS = (0, 1, 2, 3)

# DOT rendering styles, one per edge colour.
DOT_STYLES = {0: "solid", 1: "dashed", 2: "bold", 3: "dotted"}


@dataclass(frozen=True)
class ColouredGraph:
    """4-edge-coloured graph given by one involution per colour.

    involutions[c][v] is the vertex joined to v by the colour-c edge.
    Optional labels keep the original names of vertices through
    rebuilding operations (cancellations, surgery).

    The public constructor validates every involution.  Graphs derived
    from a validated graph by operations that keep each colour a
    fixed-point-free involution (welding and compressing, renaming
    colours) are built with ``_trusted`` instead, which skips the check.
    """

    involutions: tuple[tuple[int, ...], ...]
    labels: tuple[object, ...] | None = None

    @classmethod
    def _trusted(
        cls,
        involutions: tuple[tuple[int, ...], ...],
        labels: tuple[object, ...] | None = None,
    ) -> ColouredGraph:
        """Construct without validation, for graphs derived from a valid
        graph by maps known to preserve validity."""
        g = object.__new__(cls)
        d = g.__dict__
        d["involutions"] = involutions
        d["labels"] = labels
        return g

    def __post_init__(self) -> None:
        if len(self.involutions) != len(COLOURS):
            raise ValueError("need one involution per colour 0..3")
        n = len(self.involutions[0])
        for c, inv in enumerate(self.involutions):
            if len(inv) != n:
                raise ValueError("involutions must act on the same vertex set")
            for v, w in enumerate(inv):
                if not 0 <= w < n or inv[w] != v:
                    raise ValueError(f"colour {c} is not an involution at vertex {v}")
                if w == v:
                    raise ValueError(f"colour {c} fixes vertex {v} (missing edge)")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels must cover every vertex")

    @property
    def n(self) -> int:
        return len(self.involutions[0])

    def adj(self, colour: int, v: int) -> int:
        return self.involutions[colour][v]

    def label(self, v: int) -> object:
        return self.labels[v] if self.labels is not None else v

    def vertex_of_label(self, lab: object) -> int:
        if self.labels is None:
            raise ValueError("graph carries no labels")
        return self.labels.index(lab)

    # -- residues ---------------------------------------------------------

    def components(self, colours: tuple[int, ...]) -> list[list[int]]:
        """Connected components of the subgraph with the given colours,
        each as a sorted vertex list, ordered by smallest vertex."""
        idx = self.residue_index(colours)
        out: list[list[int]] = [[] for _ in range(max(idx, default=-1) + 1)]
        for v, i in enumerate(idx):
            out[i].append(v)
        return out

    def bicoloured_cycles(self, c: int, d: int) -> list[list[int]]:
        """{c,d}-residues as cyclically ordered vertex lists.

        Each cycle starts at its smallest vertex and steps by colour c
        first, so the output is deterministic.
        """
        seen = [False] * self.n
        cycles: list[list[int]] = []
        for v0 in range(self.n):
            if seen[v0]:
                continue
            cyc = []
            v, col = v0, c
            while True:
                cyc.append(v)
                seen[v] = True
                v = self.involutions[col][v]
                col = d if col == c else c
                if v == v0:
                    break
            cycles.append(cyc)
        return cycles

    def residues(self, colours: tuple[int, ...]) -> list[list[int]]:
        """Partition of the vertices into residues of the given colours.

        For a colour pair the classes come back in cyclic order; larger
        sets fall back to plain components.
        """
        if len(colours) == 2:
            return self.bicoloured_cycles(*sorted(colours))
        return self.components(colours)

    def hat(self, c: int) -> list[list[int]]:
        """Components after removing colour c."""
        return self.components(tuple(d for d in COLOURS if d != c))

    def residue_index(self, colours: tuple[int, ...]) -> list[int]:
        """residue_index[v] = position of v's residue in residues(colours),
        the residues numbered in the order of their smallest vertices."""
        rows = [self.involutions[c] for c in colours]
        idx = [-1] * self.n
        k = 0
        for v0 in range(self.n):
            if idx[v0] != -1:
                continue
            idx[v0] = k
            stack = [v0]
            while stack:
                v = stack.pop()
                for row in rows:
                    w = row[v]
                    if idx[w] == -1:
                        idx[w] = k
                        stack.append(w)
            k += 1
        return idx

    def bipartition(self) -> tuple[int, ...] | None:
        """Proper 2-colouring with class(0) = 0, or None if non-bipartite."""
        cls = [-1] * self.n
        for v0 in range(self.n):
            if cls[v0] != -1:
                continue
            cls[v0] = 0
            stack = [v0]
            while stack:
                v = stack.pop()
                for c in COLOURS:
                    w = self.involutions[c][v]
                    if cls[w] == -1:
                        cls[w] = 1 - cls[v]
                        stack.append(w)
                    elif cls[w] == cls[v]:
                        return None
        return tuple(cls)

    def is_connected(self) -> bool:
        """True when the walk from vertex 0 reaches every vertex; the walk
        stops as soon as it has."""
        n = self.n
        if n == 0:
            return True
        rows = self.involutions
        seen = [False] * n
        seen[0] = True
        reached = 1
        stack = [0]
        while stack:
            v = stack.pop()
            for row in rows:
                w = row[v]
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    stack.append(w)
            if reached == n:
                return True
        return False


def _compress(
    inv_rows: list[list[int]], keep: list[int], labels: tuple[object, ...] | None
) -> ColouredGraph:
    """Reindex the kept vertices densely, preserving labels.  The rows
    must already be involutions on the kept vertices."""
    index = [-1] * len(inv_rows[0])
    for i, v in enumerate(keep):
        index[v] = i
    invs = tuple(tuple([index[row[v]] for v in keep]) for row in inv_rows)
    labs = tuple([labels[v] for v in keep]) if labels is not None else None
    return ColouredGraph._trusted(invs, labs)


def _rows(g: ColouredGraph) -> list[list[int]]:
    return [list(g.involutions[c]) for c in COLOURS]


# -- manifold predicates ---------------------------------------------------


def sphere_defects(g: ColouredGraph) -> list[tuple[int, int, int]]:
    """Per 3-coloured residue, the Euler characteristic when it is not 2.

    Returns (missing colour, smallest vertex of the residue, chi).  A gem
    must have chi = 2 for every residue: V - 3V/2 + #(bicoloured cycles).
    """
    index = {c: g.residue_index(tuple(d for d in COLOURS if d != c)) for c in COLOURS}
    faces = {c: [0] * (max(idx, default=-1) + 1) for c, idx in index.items()}
    # each {a,b}-cycle is a face of both 3-residues that keep a and b
    for a, b in combinations(COLOURS, 2):
        keep = [c for c in COLOURS if c != a and c != b]
        for cyc in g.bicoloured_cycles(a, b):
            for c in keep:
                faces[c][index[c][cyc[0]]] += 1
    defects = []
    for c, idx in index.items():
        sizes = Counter(idx)
        for i, count in enumerate(faces[c]):
            chi = sizes[i] - 3 * sizes[i] // 2 + count
            if chi != 2:
                defects.append((c, idx.index(i), chi))
    return defects


def is_gem(g: ColouredGraph) -> bool:
    """True when every 3-coloured residue is a 2-sphere."""
    return not sphere_defects(g)


def is_contracted(g: ColouredGraph) -> bool:
    """True when each hat-c subgraph is connected."""
    return all(len(g.hat(c)) == 1 for c in COLOURS)


def embedding_euler(g: ColouredGraph, order: tuple[int, int, int, int]) -> int:
    """Euler characteristic of the regular surface embedding whose faces
    are the bicoloured cycles of consecutive colours in the cyclic order."""
    if sorted(order) != list(COLOURS):
        raise ValueError("order must be a permutation of the colours")
    faces = 0
    for i in range(4):
        faces += len(g.bicoloured_cycles(order[i], order[(i + 1) % 4]))
    return faces - g.n


def permute_colours(
    g: ColouredGraph, perm: tuple[int, int, int, int]
) -> ColouredGraph:
    """The same graph with edge colours renamed: new colour c carries the
    edges that had colour perm[c]."""
    if sorted(perm) != list(COLOURS):
        raise ValueError("perm must be a permutation of the colours")
    return ColouredGraph._trusted(
        tuple(g.involutions[perm[c]] for c in COLOURS), g.labels
    )


# -- colour-preserving isomorphism -----------------------------------------


def _cycle_lengths(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """length[v] = number of vertices on v's {a,b}-bicoloured cycle.

    The cycle through v0 alternates colours, so it is v0's orbit under
    b after a together with the a-images of that orbit."""
    length = [0] * len(a)
    for v0 in range(len(a)):
        if length[v0]:
            continue
        orbit = [v0]
        v = b[a[v0]]
        while v != v0:
            orbit.append(v)
            v = b[a[v]]
        k = 2 * len(orbit)
        for v in orbit:
            length[v] = length[a[v]] = k
    return length


def _signatures(g: ColouredGraph) -> list[tuple[int, ...]]:
    """Per vertex, the lengths of its {0,2}-, {0,3}-, {1,2}- and
    {1,3}-cycles."""
    inv = g.involutions
    pairs = ((0, 2), (0, 3), (1, 2), (1, 3))
    return list(zip(*(_cycle_lengths(inv[c], inv[d]) for c, d in pairs)))


def cp_isomorphic(g1: ColouredGraph, g2: ColouredGraph) -> list[int] | None:
    """Colour-preserving isomorphism g1 -> g2 as a vertex map, or None.

    Every vertex gets a signature: the lengths of its {0,2}-, {0,3}-,
    {1,2}- and {1,3}-cycles.  A colour-preserving isomorphism maps each
    bicoloured cycle onto one of the same length, so it preserves
    signatures.  The g1 vertex with the rarest signature (ties to the
    smallest vertex) is anchored on each g2 vertex of that signature in
    turn, and the forced images are propagated; a propagation that
    completes is a verified isomorphism.  So a map comes back exactly
    when one exists, and on graphs whose signatures vary this tries a
    handful of anchors instead of all n.

    Inputs must be connected.  A disconnected input raises ValueError,
    but connectivity is only tested where the search depends on it: when
    a propagation succeeds without reaching every vertex, and before
    answering None, by one walk per graph from vertex 0
    (``ColouredGraph.is_connected``).  The search does not re-validate
    its inputs, so a graph made by ``ColouredGraph._trusted`` must be
    derived from a validated one.  A caller that searches several graphs
    against one target computes the target's signatures once and calls
    ``_cp_search``; when a candidate map is already known, ``_is_cp_map``
    checks it in one pass instead of searching.
    """
    return _cp_search(g1, g2, _signatures(g2))


def _cp_search(
    g1: ColouredGraph, g2: ColouredGraph, sig2: list[tuple[int, ...]]
) -> list[int] | None:
    """cp_isomorphic(g1, g2), given sig2 = _signatures(g2)."""
    if g1.n != g2.n:
        return None
    if g1.n == 0:
        return []
    n = g1.n
    sig1 = _signatures(g1)
    counts = Counter(sig1)
    rarest = min(counts.values())
    anchor = next(v for v in range(n) if counts[sig1[v]] == rarest)
    anchor_sig = sig1[anchor]
    rows = tuple(zip(g1.involutions, g2.involutions))
    for target in range(n):
        if sig2[target] != anchor_sig:
            continue
        phi = [-1] * n
        used = [False] * n
        phi[anchor] = target
        used[target] = True
        queue = [anchor]
        ok = True
        while queue and ok:
            v = queue.pop()
            image = phi[v]
            for row1, row2 in rows:
                a = row1[v]
                b = row2[image]
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
        if ok:
            if -1 in phi:
                raise ValueError("cp_isomorphic expects connected graphs")
            return phi
    if not (g1.is_connected() and g2.is_connected()):
        raise ValueError("cp_isomorphic expects connected graphs")
    return None


def _is_cp_map(g1: ColouredGraph, g2: ColouredGraph, m: list[int]) -> bool:
    """True when m is a colour-preserving isomorphism g1 -> g2: a
    bijection of range(n) with m[g1_c[v]] == g2_c[m[v]] for every colour
    c and vertex v."""
    n = g1.n
    if g2.n != n or len(m) != n or sorted(m) != list(range(n)):
        return False
    return all(
        [m[x] for x in g1.involutions[c]] == [g2.involutions[c][y] for y in m]
        for c in COLOURS
    )


# -- dipoles ----------------------------------------------------------------


@dataclass(frozen=True)
class Dipole:
    """Two vertices joined by 1..3 colours and separated in the residue of
    the complementary colours."""

    vertices: tuple[int, int]
    colours: tuple[int, ...]


def _joining_colours(g: ColouredGraph, u: int, w: int) -> tuple[int, ...]:
    return tuple(c for c in COLOURS if g.involutions[c][u] == w)


def as_dipole(g: ColouredGraph, u: int, w: int) -> Dipole | None:
    """The dipole on (u, w) if the pair forms one, else None."""
    cols = _joining_colours(g, u, w)
    if not 1 <= len(cols) <= 3:
        return None
    comp_of = g.residue_index(tuple(c for c in COLOURS if c not in cols))
    if comp_of[u] == comp_of[w]:
        return None
    return Dipole((min(u, w), max(u, w)), cols)


def cancel_dipole(g: ColouredGraph, u: int, w: int) -> ColouredGraph:
    """Delete the dipole (u, w) and weld its hanging edges colourwise."""
    dip = as_dipole(g, u, w)
    if dip is None:
        raise ValueError(f"vertices {u},{w} do not form a dipole")
    rows = _rows(g)
    for c in COLOURS:
        if c in dip.colours:
            continue
        a, b = rows[c][u], rows[c][w]
        rows[c][a] = b
        rows[c][b] = a
    keep = [v for v in range(g.n) if v != u and v != w]
    return _compress(rows, keep, g.labels)


# -- blocks (ladders of parallel rungs between two residues) ----------------


@dataclass(frozen=True)
class Block:
    """Maximal ladder of rung_colour edges between two runs of consecutive
    vertices in distinct side-coloured residues.

    side_a[i] and side_b[i] are joined by a rung; consecutive side
    vertices are joined by side-coloured edges whose colours match on
    both sides and alternate along the ladder.
    """

    side_colours: tuple[int, int]
    rung_colour: int
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    gluing: bool = field(default=False, compare=False)

    @property
    def length(self) -> int:
        return len(self.side_a)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.side_a) | frozenset(self.side_b)


def find_blocks(
    g: ColouredGraph, side_colours: tuple[int, int], rung_colour: int
) -> list[Block]:
    """All maximal blocks with the given side and rung colours.

    Closed ladders (cylinders wrapping back onto themselves) are not
    blocks and are skipped, as are ladders whose two sides lie in the
    same side-coloured residue.
    """
    return _find_blocks(
        g,
        side_colours,
        rung_colour,
        g.residue_index(side_colours),
        g.residue_index(tuple(c for c in COLOURS if c != rung_colour)),
    )


def _find_blocks(
    g: ColouredGraph,
    side_colours: tuple[int, int],
    rung_colour: int,
    res_idx: list[int],
    hat_idx: list[int],
) -> list[Block]:
    """find_blocks, given the residue_index of the side colours and of
    the hat of the rung colour.

    Every rung is walked once.  stamp[v] numbers the walk that reached
    the rung through v (0 before any has), so a rung met again by its own
    walk closes the ladder and one stamped by any walk is not restarted.
    """
    p, q = side_colours
    inv = g.involutions
    rung, side_p, side_q = inv[rung_colour], inv[p], inv[q]
    stamp = [0] * g.n
    walk = 0
    blocks: list[Block] = []
    for v in range(g.n):
        if stamp[v]:
            continue
        w = rung[v]
        walk += 1
        stamp[v] = stamp[w] = walk
        start = (v, w) if v < w else (w, v)
        # walk in both directions with alternating side colours: the
        # rungs found from start across p come after it, across q before
        after: list[tuple[int, int]] = []
        before: list[tuple[int, int]] = []
        closed = False
        for row, other, grown in ((side_p, side_q, after), (side_q, side_p, before)):
            x, y = start
            while True:
                x2, y2 = row[x], row[y]
                if rung[x2] != y2 or x2 == x or x2 == y:
                    break
                if stamp[x2] == walk:
                    closed = True
                    break
                grown.append((x2, y2))
                stamp[x2] = stamp[y2] = walk
                x, y = x2, y2
                row, other = other, row
            if closed:
                break
        if closed:
            continue
        chain = before[::-1] + [start] + after
        a, b = chain[0]
        if res_idx[a] == res_idx[b]:
            continue
        # orient the two sides consistently along the chain
        side_a = [a]
        side_b = [b]
        for pair in chain[1:]:
            step = next(
                row
                for row in (side_p, side_q)
                if row[a] in pair and rung[row[a]] == row[b]
            )
            a, b = step[a], step[b]
            side_a.append(a)
            side_b.append(b)
        # normalise the representation: smallest corner first on side_a
        reps = [
            (tuple(side_a), tuple(side_b)),
            (tuple(reversed(side_a)), tuple(reversed(side_b))),
            (tuple(side_b), tuple(side_a)),
            (tuple(reversed(side_b)), tuple(reversed(side_a))),
        ]
        a_side, b_side = min(reps)
        blocks.append(
            Block(
                (min(p, q), max(p, q)),
                rung_colour,
                a_side,
                b_side,
                gluing=hat_idx[a_side[0]] != hat_idx[b_side[0]],
            )
        )
    return sorted(blocks, key=lambda b: (b.side_a, b.side_b))


def _kept(g: ColouredGraph, block: Block) -> list[int]:
    """The vertices of g that cancel_block(g, block) keeps, in the order
    of the cancelled graph."""
    body = block.vertices
    return [v for v in range(g.n) if v not in body]


def cancel_block(g: ColouredGraph, block: Block) -> ColouredGraph:
    """Remove a gluing block and weld the hanging edges.

    Every non-rung edge leaving a block vertex is chased through the
    ladder (alternating rung and same-colour steps) until it exits; the
    two exit vertices are welded with that colour.  Matching side-edge
    colours on the two sides make the chase well defined, and rung edges
    never leave the block, so the chase cannot cycle.
    """
    if not block.gluing:
        raise ValueError("only gluing blocks can be cancelled")
    body = block.vertices
    if len(body) >= g.n:
        raise ValueError("block cancellation would empty the graph")
    r = block.rung_colour
    rows = _rows(g)
    rung = rows[r]
    for c in COLOURS:
        if c == r:
            continue
        row = rows[c]
        welds = []
        for x in body:
            u = row[x]
            if u in body:
                continue
            w = x
            while w in body:
                w = row[rung[w]]
            welds.append((u, w))
        for u, w in welds:
            row[u] = w
            row[w] = u
    return _compress(rows, _kept(g, block), g.labels)


def cancel_block_by_dipoles(g: ColouredGraph, block: Block) -> ColouredGraph:
    """Cancel a gluing block rung by rung as dipoles (independent route).

    The first rung pair is a type-1 dipole; each weld turns the next rung
    pair into a dipole in the reduced graph.  Kept separate from
    cancel_block so the two implementations can be checked against each
    other.
    """
    if not block.gluing:
        raise ValueError("only gluing blocks can be cancelled")
    h = block.length
    cur = g
    for i in range(h):
        if cur.labels is None:
            raise ValueError("dipole route needs labelled vertices")
        u = cur.vertex_of_label(g.label(block.side_a[i]))
        w = cur.vertex_of_label(g.label(block.side_b[i]))
        cur = cancel_dipole(cur, u, w)
    return cur


# -- DOT export --------------------------------------------------------------


def to_dot(g: ColouredGraph, name: str = "gem") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f'  v{v} [label="{g.label(v)}"];')
    for c in COLOURS:
        for v in range(g.n):
            w = g.involutions[c][v]
            if v < w:
                lines.append(f"  v{v} -- v{w} [color={c}, style={DOT_STYLES[c]}];")
    lines.append("}")
    return "\n".join(lines)
