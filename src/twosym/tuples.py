"""Integer 6-tuples encoding genus-two crystallizations.

A tuple f = (h0,h1,h2; q0,q1,q2) describes a 4-coloured graph on three
{0,1}-cycles C_0, C_1, C_2 of lengths 2l_i = h_{i-1} + h_i (indices mod
3).  Colour-2 edges tie consecutive runs of the three cycles together;
colour-3 edges do the same after shifting each C_i by q_i, so the shift
map is an automorphism exchanging colours 2 and 3.  The h_i share one
parity and the q_i the other, each q_i reduced mod 2l_i.

A tuple carries its admissibility proof: the _proved flag, not a field,
so comparison and hashing ignore it.  require_admissible, the census
scan and the H1 walk set it once they have decided; images under the
relabellings and the move, which keep admissibility, inherit it
(SixTuple._image).  Every public entry point calls require_admissible,
free on a proved tuple; admissibility and is_admissible always decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColouredGraph


class ConditionError(ValueError):
    """A tuple violates one of the named validity conditions."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True, order=True)
class SixTuple:
    h0: int
    h1: int
    h2: int
    q0: int
    q1: int
    q2: int

    _proved = False  # a class default; _mark sets it per instance

    def __post_init__(self) -> None:
        h, q = self.h, self.q
        if any(x < 1 for x in h):
            raise ConditionError("h positivity", f"h must be positive in {self}")
        if len({x % 2 for x in h}) != 1:
            raise ConditionError("h parity", f"h must share one parity in {self}")
        for i in range(3):
            if not 0 <= q[i] < self.two_l(i):
                raise ConditionError(
                    "q range", f"q{i} out of range [0, {self.two_l(i)}) in {self}"
                )
        if len({x % 2 for x in q}) != 1:
            raise ConditionError("q parity", f"q must share one parity in {self}")

    @classmethod
    def _trusted(cls, fields: tuple[int, int, int, int, int, int]) -> SixTuple:
        """Construct without validation, for images of a valid tuple
        under maps known to preserve validity (the relabellings)."""
        f = object.__new__(cls)
        d = f.__dict__
        d["h0"], d["h1"], d["h2"], d["q0"], d["q1"], d["q2"] = fields
        return f

    def _mark(self) -> SixTuple:
        """Record that self is proved admissible."""
        self.__dict__["_proved"] = True
        return self

    def _image(self, g: SixTuple) -> SixTuple:
        """g, an image of self under a relabelling or the move, which keep
        admissibility: g carries self's proof."""
        return g._mark() if self._proved else g

    @property
    def h(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    @property
    def q(self) -> tuple[int, int, int]:
        return (self.q0, self.q1, self.q2)

    def two_l(self, i: int) -> int:
        """Length of the cycle C_i."""
        h = self.h
        return h[(i - 1) % 3] + h[i % 3]

    @property
    def upsilon(self) -> int:
        """Complexity: half the vertex count, h0 + h1 + h2."""
        return self.h0 + self.h1 + self.h2

    @classmethod
    def reduce(cls, h0: int, h1: int, h2: int, q0: int, q1: int, q2: int) -> SixTuple:
        """Construct with each q_i reduced to its least non-negative
        residue mod 2l_i (the cycle lengths are even, so parity survives)."""
        ls = (h2 + h0, h0 + h1, h1 + h2)
        return cls(h0, h1, h2, q0 % ls[0], q1 % ls[1], q2 % ls[2])

    def __str__(self) -> str:
        return f"({self.h0},{self.h1},{self.h2};{self.q0},{self.q1},{self.q2})"


def parse_tuple(text: str) -> SixTuple:
    """Parse "(h0,h1,h2;q0,q1,q2)" (parens optional, ; or , separators)."""
    body = text.strip().strip("()").replace(";", ",")
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 6:
        raise ValueError(f"expected 6 integers, got {len(parts)} in {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError as e:
        raise ValueError(f"non-integer entry in {text!r}") from e
    return SixTuple(*nums)


# -- graph construction ------------------------------------------------------


def involution_arrays(f: SixTuple) -> list[list[int]]:
    """The four colour involutions of f's graph as flat vertex arrays.

    Vertex (i, j), i mod 3 and j mod 2l_i, is numbered off_i + j with
    the cycles C_0, C_1, C_2 laid out in order.  Colour 0 joins
    (i,2k)-(i,2k+1) and colour 1 joins (i,2k+1)-(i,2k+2), so the C_i are
    the {0,1}-cycles; every off_i is even, so colour 0 is v -> v ^ 1.
    Colours 2 and 3 are laid out by _arrays_23.
    """
    inv1: list[int] = []
    off = 0
    for i in range(3):
        m = f.two_l(i)
        inv1 += [off + (((j - 1) ^ 1) + 1) % m for j in range(m)]
        off += m
    return [[v ^ 1 for v in range(off)], inv1, *_arrays_23(f)]


def _arrays_23(f: SixTuple) -> tuple[list[int], list[int]]:
    """Colours 2 and 3 in the layout of involution_arrays.

    Colour 2 sends the first h_i vertices of C_i, in reverse, onto the
    last h_i vertices of C_{i+1} and the rest onto the first h_{i-1}
    vertices of C_{i-1}; colour 3 is colour 2 conjugated by the shift
    rho: (i,j) -> (i, j+q_i).
    """
    h, q = f.h, f.q
    two_l = (h[2] + h[0], h[0] + h[1], h[1] + h[2])
    off = (0, two_l[0], two_l[0] + two_l[1])
    inv2: list[int] = []
    rho: list[int] = []
    for i in range(3):
        o, m, s = off[i], two_l[i], q[i]
        up = off[(i + 1) % 3] + two_l[(i + 1) % 3] - 1
        down = off[i - 1] + m - 1
        inv2 += range(up, up - h[i], -1)
        inv2 += range(down - h[i], down - m, -1)
        rho += range(o + s, o + m)
        rho += range(o, o + s)
    inv3 = [0] * len(inv2)
    for v, w in enumerate(inv2):
        inv3[rho[v]] = rho[w]
    return inv2, inv3


def build_graph(f: SixTuple) -> ColouredGraph:
    """The 4-coloured graph of f on vertices (i, j), i mod 3, j mod 2l_i,
    with the involutions of involution_arrays."""
    labels = tuple((i, j) for i in range(3) for j in range(f.two_l(i)))
    inv = involution_arrays(f)
    return ColouredGraph(tuple(tuple(row) for row in inv), labels)


def _residue_count(inv_a: list[int], inv_b: list[int]) -> int:
    """Number of bicoloured cycles of two involutions on one vertex set."""
    seen = bytearray(len(inv_a))
    count = 0
    for v0 in range(len(inv_a)):
        if seen[v0]:
            continue
        count += 1
        v = v0
        while True:
            w = inv_a[v]
            seen[v] = seen[w] = 1
            v = inv_b[w]
            if v == v0:
                break
    return count


def embedding_euler_of_tuple(f: SixTuple) -> int:
    """embedding_euler(build_graph(f), (0, 2, 1, 3)) on the flat arrays:
    the faces are the {0,2}-, {2,1}-, {1,3}- and {3,0}-cycles."""
    inv0, inv1, inv2, inv3 = involution_arrays(f)
    faces = (
        _residue_count(inv0, inv2)
        + _residue_count(inv2, inv1)
        + _residue_count(inv1, inv3)
        + _residue_count(inv3, inv0)
    )
    return faces - len(inv0)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    failures: tuple[str, ...]
    residues_23: int

    def __str__(self) -> str:
        if self.ok:
            return "admissible"
        return "not admissible: " + "; ".join(self.failures)


def even_parities(f: SixTuple) -> list[int]:
    """The indices i with h_i + q_i even; admissibility needs none."""
    return [i for i in range(3) if (f.h[i] + f.q[i]) % 2 == 0]


def admissibility(f: SixTuple) -> AdmissibilityReport:
    """Check the two conditions beyond the constructor's invariants:
    each h_i + q_i odd, and exactly three {2,3}-residues, counted on the
    colour-2 and colour-3 arrays without building the graph."""
    failures = [f"h+q parity: h{i}+q{i} is even" for i in even_parities(f)]
    count = _residue_count(*_arrays_23(f))
    if count != 3:
        failures.append(f"{{2,3}}-residue count: {count} (need 3)")
    return AdmissibilityReport(not failures, tuple(failures), count)


def is_admissible(f: SixTuple) -> bool:
    return admissibility(f).ok


def require_admissible(f: SixTuple) -> None:
    """Prove f admissible, once: a proved tuple returns at once, and any
    other raises ConditionError naming the first failed condition."""
    if f._proved:
        return
    rep = admissibility(f)
    if not rep.ok:
        raise ConditionError(rep.failures[0].split(":")[0], f"{f} {rep}")
    f._mark()


# -- structural checks -------------------------------------------------------


def rho_symmetry(f: SixTuple) -> dict[str, bool]:
    """Verify how the shift (i,j) -> (i, j+q_i) acts on the graph: it
    carries the 2-edges onto the 3-edges (that is how the 3-edges are
    defined), and it carries the 0- and 1-edges to themselves, swapping
    the two colours exactly when the q_i are odd.  The reverse direction
    (3-edges onto 2-edges) holds only when the double shift commutes
    with the 2-involution, so it is not part of the contract."""
    g = build_graph(f)
    two_l = [f.two_l(i) for i in range(3)]
    off = [0, two_l[0], two_l[0] + two_l[1]]
    rho = [0] * g.n
    for i in range(3):
        for j in range(two_l[i]):
            rho[off[i] + j] = off[i] + (j + f.q[i]) % two_l[i]

    def conjugate_is(c_from: int, c_to: int) -> bool:
        inv_f, inv_t = g.involutions[c_from], g.involutions[c_to]
        return all(rho[inv_f[v]] == inv_t[rho[v]] for v in range(g.n))

    odd_q = f.q0 % 2 == 1
    return {
        "sends 2-edges to 3-edges": conjugate_is(2, 3),
        "acts on 0 and 1 by q parity": (
            conjugate_is(0, 1) and conjugate_is(1, 0)
            if odd_q
            else conjugate_is(0, 0) and conjugate_is(1, 1)
        ),
    }


def zero_q_count(f: SixTuple) -> int:
    """Number of vanishing shifts; invariant on the whole symmetry orbit
    because the generators only permute and negate the q_i."""
    return sum(1 for x in f.q if x == 0)
