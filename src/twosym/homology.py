"""Integral first homology of crystallization graphs.

The {0,1}-cycles of a bipartite crystallization generate H_1; every
{2,3}-cycle contributes one relator whose exponent sum on a generator
counts the cycle's visits to that {0,1}-cycle with a sign given by the
vertex bipartition class.  One generator is killed for the base point.
The cokernel is computed over exact integers by Smith reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColouredGraph, is_contracted, is_gem


def smith_normal_form(
    matrix: list[list[int]], certify: bool = False
) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    With certify=True the unimodular row/column operations are tracked
    and the diagonalisation is re-multiplied against the input.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    a = [list(row) for row in matrix]
    U = [[int(i == j) for j in range(m)] for i in range(m)] if certify else None
    V = [[int(i == j) for j in range(n)] for i in range(n)] if certify else None

    def row_sub(i: int, k: int, q: int) -> None:
        for j in range(n):
            a[i][j] -= q * a[k][j]
        if U is not None:
            for j in range(m):
                U[i][j] -= q * U[k][j]

    def col_sub(j: int, k: int, q: int) -> None:
        for i in range(m):
            a[i][j] -= q * a[i][k]
        if V is not None:
            for i in range(n):
                V[i][j] -= q * V[i][k]

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        if U is not None:
            U[i], U[k] = U[k], U[i]

    def col_swap(j: int, k: int) -> None:
        for row in a:
            row[j], row[k] = row[k], row[j]
        if V is not None:
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
    if certify:
        if U is None or V is None:
            raise RuntimeError("certificate transforms were not tracked")
        prod = [
            [sum(U[i][k] * matrix[k][j] for k in range(m)) for j in range(n)]
            for i in range(m)
        ]
        prod = [
            [sum(prod[i][k] * V[k][j] for k in range(n)) for j in range(n)]
            for i in range(m)
        ]
        if prod != a:
            raise RuntimeError(
                "re-multiplication does not reproduce the diagonal form"
            )
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
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("Z/"):
            d = int(part[2:])
            if d == 0:
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
    n_gens = len(g.residues((0, 1)))
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
