"""Integral first homology of crystallization graphs.

The {0,1}-cycles of a bipartite crystallization generate H_1; every
{2,3}-cycle contributes one relator whose exponent sum on a generator
counts the cycle's visits to that {0,1}-cycle with a sign given by the
vertex bipartition class.  One generator is killed for the base point.

h1_of_tuple reads this presentation straight off an admissible tuple's
colour-2 and colour-3 arrays: admissibility already makes the tuple's
graph a contracted bipartite gem, vertex parity is its bipartition and
the {0,1}-cycle of a vertex is fixed by the cycle offsets, so no graph
is built.  A genus-2 presentation has three generators and the kill row
removes one, so its cokernel is read in closed form off the gcd of the
relator entries and the gcd of their 2 x 2 minors.

h1 takes a graph and proves those facts first; it is for graphs that do
not come from a tuple, such as cancelled surgery blocks.  Its cokernel
is computed over exact integers by Smith reduction, which also serves
the tests that cross-check the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import ColouredGraph, is_contracted, is_gem
from .tuples import SixTuple, _arrays_23, even_parities, require_admissible


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    The unimodular row/column operations are tracked as U and V, and
    U * matrix * V is re-multiplied against the diagonal form, so every
    result carries its own proof.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    a = [list(row) for row in matrix]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i: int, k: int, q: int) -> None:
        for j in range(n):
            a[i][j] -= q * a[k][j]
        for j in range(m):
            U[i][j] -= q * U[k][j]

    def col_sub(j: int, k: int, q: int) -> None:
        for i in range(m):
            a[i][j] -= q * a[i][k]
        for i in range(n):
            V[i][j] -= q * V[i][k]

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j: int, k: int) -> None:
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(m, n):
        piv = min(
            (
                (abs(a[i][j]), i, j)
                for i in range(t, m)
                for j in range(t, n)
                if a[i][j]
            ),
            default=None,
        )
        if piv is None:
            break
        row_swap(t, piv[1])
        col_swap(t, piv[2])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        row_swap(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        col_swap(j, t)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, m)):
                if all(a[t][j] == 0 for j in range(t + 1, n)):
                    break
        d = a[t][t]
        bad = next(
            (
                i
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if a[i][j] % d
            ),
            None,
        )
        if bad is not None:
            # fold the offending row into the pivot row and redo the step
            row_sub(t, bad, -1)
            continue
        if a[t][t] < 0:
            row_sub(t, t, 2)  # negates the pivot row
        t += 1

    diag = [a[i][i] for i in range(min(m, n)) if a[i][i]]
    for i in range(len(diag) - 1):
        if diag[i + 1] % diag[i]:
            raise RuntimeError("broken divisibility chain")
    prod = [
        [sum(U[i][k] * matrix[k][j] for k in range(m)) for j in range(n)]
        for i in range(m)
    ]
    prod = [
        [sum(prod[i][k] * V[k][j] for k in range(n)) for j in range(n)]
        for i in range(m)
    ]
    if prod != a:
        raise RuntimeError("re-multiplication does not reproduce the diagonal form")
    return diag


@dataclass(frozen=True)
class AbelianGroupSignature:
    """Finitely generated abelian group: free rank plus torsion chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0 or any(d < 2 for d in self.torsion):
            raise ValueError("invalid signature")
        for i in range(len(self.torsion) - 1):
            if self.torsion[i + 1] % self.torsion[i]:
                raise ValueError("torsion must form a divisibility chain")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianGroupSignature(0, ())


def parse_signature(text: str) -> AbelianGroupSignature:
    """Inverse of str(AbelianGroupSignature); accepts Z/0 for Z and Z/1
    for a trivial factor."""
    text = text.strip()
    if text == "0":
        return TRIVIAL_GROUP
    free = 0
    torsion = []
    for part in text.split("+"):
        part = part.strip()
        if part == "Z":
            free += 1
        elif part.startswith(("Z^", "Z/")):
            d = int(part[2:])
            if d < 0:
                raise ValueError(f"negative rank or torsion order in {text!r}")
            if part[1] == "^":
                free += d
            elif d == 0:
                free += 1
            elif d > 1:
                torsion.append(d)
        else:
            raise ValueError(f"bad group signature {text!r}")
    return AbelianGroupSignature(free, tuple(sorted(torsion)))


def cokernel(matrix: list[list[int]], n_generators: int) -> AbelianGroupSignature:
    invariants = smith_normal_form(matrix)
    return AbelianGroupSignature(
        n_generators - len(invariants),
        tuple(d for d in invariants if d > 1),
    )


def h1_presentation(g: ColouredGraph) -> list[list[int]]:
    """Relator matrix over the {0,1}-cycle generators (see module doc).

    Requires a bipartite crystallization; the base generator (the cycle
    through vertex 0) gets an extra kill relator.
    """
    if not is_gem(g):
        raise ValueError("H1 needs a gem (all 3-coloured residues spheres)")
    if not is_contracted(g):
        raise ValueError("H1 needs a contracted gem")
    cls = g.bipartition()
    if cls is None:
        raise ValueError("H1 needs a bipartite (orientable) gem")
    gen_of = g.residue_index((0, 1))
    n_gens = max(gen_of) + 1
    rows = []
    for cyc in g.residues((2, 3)):
        row = [0] * n_gens
        for v in cyc:
            row[gen_of[v]] += 1 if cls[v] == 0 else -1
        rows.append(row)
    kill = [0] * n_gens
    kill[gen_of[0]] = 1
    rows.append(kill)
    return rows


def h1(g: ColouredGraph) -> AbelianGroupSignature:
    """First integral homology group of the encoded manifold."""
    matrix = h1_presentation(g)
    return cokernel(matrix, len(matrix[0]))


def h1_presentation_of_tuple(f: SixTuple) -> list[list[int]]:
    """h1_presentation(build_graph(f)) for an admissible f, row for row,
    without building the graph.

    Each {2,3}-cycle is walked from its smallest vertex as
    _residue_count walks it; a colour-2 edge v-w adds the sign of v's
    parity to v's generator and subtracts it from w's.  The generator of
    a vertex is its {0,1}-cycle C_i, the block of the layout it lies in.
    """
    inv2, inv3 = _arrays_23(f)
    gen_of = [0] * f.two_l(0) + [1] * f.two_l(1) + [2] * f.two_l(2)
    seen = bytearray(len(inv2))
    rows = []
    for v0 in range(len(inv2)):
        if seen[v0]:
            continue
        row = [0, 0, 0]
        v = v0
        while True:
            w = inv2[v]
            seen[v] = seen[w] = 1
            sign = -1 if v & 1 else 1
            row[gen_of[v]] += sign
            row[gen_of[w]] -= sign
            v = inv3[w]
            if v == v0:
                break
        rows.append(row)
    if len(rows) == 3 and not even_parities(f):
        f._mark()  # the walk has decided admissibility
    else:
        require_admissible(f)  # raises, naming the failed condition
    rows.append([1, 0, 0])
    return rows


def _cokernel_killing_c0(rows: list[list[int]]) -> AbelianGroupSignature:
    """cokernel(rows, 3) for three relator rows followed by the kill row
    [1, 0, 0].

    The kill row removes C_0, so the group is Z^2 modulo the rows
    (b_i, c_i).  Its invariant factors are D1, the gcd of the entries,
    and D2 / D1, with D2 the gcd of the 2 x 2 minors; D2 = 0 leaves one
    free generator, and D1 = 0 both.
    """
    (_, b1, c1), (_, b2, c2), (_, b3, c3), _ = rows
    d1 = gcd(b1, c1, b2, c2, b3, c3)
    d2 = gcd(b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2)
    if d2:
        return AbelianGroupSignature(0, tuple(d for d in (d1, d2 // d1) if d > 1))
    if d1:
        return AbelianGroupSignature(1, (d1,) if d1 > 1 else ())
    return AbelianGroupSignature(2, ())


def h1_of_tuple(f: SixTuple) -> AbelianGroupSignature:
    """h1(build_graph(f)) for an admissible f, from the flat arrays.

    The relators are those of h1_presentation_of_tuple; their cokernel
    is read in closed form, without Smith reduction.
    """
    return _cokernel_killing_c0(h1_presentation_of_tuple(f))


def lens_expectation(f) -> AbelianGroupSignature | None:
    """Closed-form H1 when at least two shifts vanish, else None.

    Three vanishing shifts give the 3-sphere; exactly two give the lens
    space whose order is half the remaining cycle length.
    """
    zeros = sum(1 for x in f.q if x == 0)
    if zeros == 3:
        return TRIVIAL_GROUP
    if zeros == 2:
        k = next(i for i in range(3) if f.q[i] != 0)
        order = f.two_l(k) // 2
        return TRIVIAL_GROUP if order == 1 else AbelianGroupSignature(0, (order,))
    return None
