"""Edge-coloured graphs encoding closed 3-manifolds (gems).

A gem is a finite 4-regular multigraph whose edges are properly coloured
by 0..3: every vertex meets exactly one edge of each colour.  We store
one fixed-point-free involution per colour, as dense integer arrays.
Bicoloured cycles play the role of faces; a gem encodes a manifold when
every 3-coloured residue is a 2-sphere, and the manifold is orientable
exactly when the graph is bipartite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

COLOURS = (0, 1, 2, 3)

# DOT rendering styles, one per edge colour.
DOT_STYLES = {0: "solid", 1: "dashed", 2: "bold", 3: "dotted"}


@dataclass(frozen=True)
class ColouredGraph:
    """4-edge-coloured graph given by one involution per colour.

    involutions[c][v] is the vertex joined to v by the colour-c edge.
    Optional labels keep the original names of vertices through
    rebuilding operations (cancellations, surgery).
    """

    involutions: tuple[tuple[int, ...], ...]
    labels: tuple[object, ...] | None = None

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
        seen = [False] * self.n
        out: list[list[int]] = []
        for v0 in range(self.n):
            if seen[v0]:
                continue
            comp = [v0]
            seen[v0] = True
            stack = [v0]
            while stack:
                v = stack.pop()
                for c in colours:
                    w = self.involutions[c][v]
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
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
        """residue_index[v] = position of v's residue in residues(colours)."""
        idx = [-1] * self.n
        for i, cls in enumerate(self.residues(colours)):
            for v in cls:
                idx[v] = i
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
        return len(self.components(COLOURS)) <= 1


def _compress(
    inv_rows: list[list[int]], keep: list[int], labels: tuple[object, ...] | None
) -> ColouredGraph:
    """Reindex the kept vertices densely, preserving labels."""
    index = {v: i for i, v in enumerate(keep)}
    invs = tuple(tuple(index[inv_rows[c][v]] for v in keep) for c in COLOURS)
    labs = tuple(labels[v] for v in keep) if labels is not None else None
    return ColouredGraph(invs, labs)


def _rows(g: ColouredGraph) -> list[list[int]]:
    return [list(g.involutions[c]) for c in COLOURS]


# -- manifold predicates ---------------------------------------------------


def sphere_defects(g: ColouredGraph) -> list[tuple[int, int, int]]:
    """Per 3-coloured residue, the Euler characteristic when it is not 2.

    Returns (missing colour, smallest vertex of the residue, chi).  A gem
    must have chi = 2 for every residue: V - 3V/2 + #(bicoloured cycles).
    """
    defects = []
    for c in COLOURS:
        rest = tuple(d for d in COLOURS if d != c)
        comp_of = {}
        comps = g.components(rest)
        for i, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = i
        faces = [0] * len(comps)
        for a_i in range(3):
            for b_i in range(a_i + 1, 3):
                for cyc in g.bicoloured_cycles(rest[a_i], rest[b_i]):
                    faces[comp_of[cyc[0]]] += 1
        for i, comp in enumerate(comps):
            chi = len(comp) - 3 * len(comp) // 2 + faces[i]
            if chi != 2:
                defects.append((c, comp[0], chi))
    return defects


def is_gem(g: ColouredGraph) -> bool:
    """True when every 3-coloured residue is a 2-sphere."""
    return not sphere_defects(g)


def is_contracted(g: ColouredGraph) -> bool:
    """True when each hat-c subgraph is connected."""
    return all(len(g.hat(c)) == 1 for c in COLOURS)


def is_crystallization(g: ColouredGraph) -> bool:
    return is_gem(g) and is_contracted(g)


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
    return ColouredGraph(tuple(g.involutions[perm[c]] for c in COLOURS), g.labels)


# -- colour-preserving isomorphism -----------------------------------------


def cp_isomorphic(g1: ColouredGraph, g2: ColouredGraph) -> list[int] | None:
    """Colour-preserving isomorphism g1 -> g2 as a vertex map, or None.

    Anchors vertex 0 of g1 on each vertex of g2 in turn and propagates
    the forced images breadth-first.  Inputs must be connected.
    """
    if g1.n != g2.n:
        return None
    if g1.n == 0:
        return []
    if not (g1.is_connected() and g2.is_connected()):
        raise ValueError("cp_isomorphic expects connected graphs")
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


# -- dipoles ----------------------------------------------------------------


@dataclass(frozen=True)
class Dipole:
    """Two vertices joined by 1..3 colours and separated in the residue of
    the complementary colours."""

    vertices: tuple[int, int]
    colours: tuple[int, ...]

    @property
    def type(self) -> int:
        return len(self.colours)


def _joining_colours(g: ColouredGraph, u: int, w: int) -> tuple[int, ...]:
    return tuple(c for c in COLOURS if g.involutions[c][u] == w)


def as_dipole(g: ColouredGraph, u: int, w: int) -> Dipole | None:
    """The dipole on (u, w) if the pair forms one, else None."""
    cols = _joining_colours(g, u, w)
    if not 1 <= len(cols) <= 3:
        return None
    rest = tuple(c for c in COLOURS if c not in cols)
    comp_of = {}
    for i, comp in enumerate(g.components(rest)):
        for v in comp:
            comp_of[v] = i
    if comp_of[u] == comp_of[w]:
        return None
    return Dipole((min(u, w), max(u, w)), cols)


def find_dipoles(g: ColouredGraph) -> list[Dipole]:
    seen: set[tuple[int, int]] = set()
    out = []
    for u in range(g.n):
        for c in COLOURS:
            w = g.involutions[c][u]
            pair = (min(u, w), max(u, w))
            if pair in seen:
                continue
            seen.add(pair)
            d = as_dipole(g, *pair)
            if d is not None:
                out.append(d)
    return sorted(out, key=lambda d: d.vertices)


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


def insert_dipole(g: ColouredGraph, colour: int, v: int) -> ColouredGraph:
    """Split the colour-c edge at v with a fresh pair joined by the other
    three colours (always a genuine dipole of type 3)."""
    w = g.involutions[colour][v]
    n = g.n
    x, y = n, n + 1
    rows = [list(g.involutions[c]) + [-1, -1] for c in COLOURS]
    for c in COLOURS:
        if c == colour:
            rows[c][v], rows[c][x] = x, v
            rows[c][w], rows[c][y] = y, w
        else:
            rows[c][x], rows[c][y] = y, x
    labels = None
    if g.labels is not None:
        labels = g.labels + (("ins", n), ("ins", n + 1))
    return ColouredGraph(tuple(tuple(r) for r in rows), labels)


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

    @property
    def corners(self) -> tuple[int, ...]:
        if self.length == 1:
            return (self.side_a[0], self.side_b[0])
        return (self.side_a[0], self.side_a[-1], self.side_b[0], self.side_b[-1])


def find_blocks(
    g: ColouredGraph, side_colours: tuple[int, int], rung_colour: int
) -> list[Block]:
    """All maximal blocks with the given side and rung colours.

    Closed ladders (cylinders wrapping back onto themselves) are not
    blocks and are skipped, as are ladders whose two sides lie in the
    same side-coloured residue.
    """
    p, q = side_colours
    res_idx = g.residue_index((p, q))
    hat_idx = [-1] * g.n
    for i, comp in enumerate(g.hat(rung_colour)):
        for v in comp:
            hat_idx[v] = i

    def neighbour(pair: tuple[int, int], c: int) -> tuple[int, int] | None:
        # the parallel rung across colour c, when both side edges land
        # on another rung-colour edge
        x2, y2 = g.involutions[c][pair[0]], g.involutions[c][pair[1]]
        return (x2, y2) if g.involutions[rung_colour][x2] == y2 else None

    done: set[frozenset[int]] = set()
    blocks: list[Block] = []
    for v in range(g.n):
        w = g.involutions[rung_colour][v]
        start = (min(v, w), max(v, w))
        if frozenset(start) in done:
            continue
        # walk in both directions with alternating side colours
        chain = [start]
        closed = False
        for first_c, grow_front in ((p, False), (q, True)):
            cur, c = start, first_c
            while True:
                nxt = neighbour(cur, c)
                if nxt is None or frozenset(nxt) == frozenset(cur):
                    break
                if frozenset(nxt) in {frozenset(r) for r in chain}:
                    closed = True
                    break
                if grow_front:
                    chain.insert(0, nxt)
                else:
                    chain.append(nxt)
                cur = nxt
                c = p if c == q else q
            if closed:
                break
        for r in chain:
            done.add(frozenset(r))
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


def find_gluing_blocks(
    g: ColouredGraph, side_colours: tuple[int, int], rung_colour: int
) -> list[Block]:
    """Blocks whose sides also lie in distinct hat-(rung colour) components."""
    return [b for b in find_blocks(g, side_colours, rung_colour) if b.gluing]


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
    for c in COLOURS:
        if c == r:
            continue
        welds = []
        for u in range(g.n):
            if u in body or rows[c][u] not in body:
                continue
            w = rows[c][u]
            while w in body:
                w = rows[c][rows[r][w]]
            welds.append((u, w))
        for u, w in welds:
            rows[c][u] = w
            rows[c][w] = u
    keep = [v for v in range(g.n) if v not in body]
    return _compress(rows, keep, g.labels)


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
