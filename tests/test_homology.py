"""Integer matrix normal form and first homology of the encoded spaces."""

import math
import random
from itertools import combinations

import pytest

from twosym import (
    AbelianGroupSignature,
    ConditionError,
    build_graph,
    h1,
    h1_of_tuple,
    h1_presentation,
    lens_expectation,
    parse_signature,
    parse_tuple,
    smith_normal_form,
)
from twosym.homology import (
    _cokernel_killing_c0,
    cokernel,
    h1_presentation_of_tuple,
)


def minors_gcd_factors(matrix):
    """Invariant factors through gcds of k x k minors; an independent
    route used to cross-check the elimination."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0

    def minor_det(rows, cols):
        sub = [[matrix[i][j] for j in cols] for i in rows]
        k = len(rows)
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            sign = -1 if j % 2 else 1
            inner = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += sign * sub[0][j] * _det(inner)
        return total

    def _det(a):
        k = len(a)
        if k == 1:
            return a[0][0]
        return sum(
            (-1 if j % 2 else 1) * a[0][j] * _det([r[:j] + r[j + 1 :] for r in a[1:]])
            for j in range(k)
        )

    factors = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = math.gcd(g, minor_det(rows, cols))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def test_snf_known_matrix():
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]


def test_snf_edge_cases():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[5]]) == [5]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        d = smith_normal_form(a)
        assert all(x > 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))


def test_snf_against_minor_gcds():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(a) == minors_gcd_factors(a)


def test_signature_formatting():
    assert str(AbelianGroupSignature(0, ())) == "0"
    assert str(AbelianGroupSignature(1, ())) == "Z"
    assert str(AbelianGroupSignature(2, ())) == "Z^2"
    assert str(AbelianGroupSignature(0, (2,))) == "Z/2"
    assert str(AbelianGroupSignature(1, (2, 6))) == "Z + Z/2 + Z/6"


def test_signature_parsing_round_trip():
    for sig in [
        AbelianGroupSignature(0, ()),
        AbelianGroupSignature(1, ()),
        AbelianGroupSignature(3, ()),
        AbelianGroupSignature(0, (5,)),
        AbelianGroupSignature(2, (2, 4, 8)),
    ]:
        assert parse_signature(str(sig)) == sig
    with pytest.raises(ValueError):
        parse_signature("Q")


def test_signature_normalisation_rules():
    with pytest.raises(ValueError):
        AbelianGroupSignature(0, (1,))  # unit factors are never stored
    with pytest.raises(ValueError):
        AbelianGroupSignature(0, (4, 2))  # not a divisibility chain
    assert parse_signature("Z/1") == AbelianGroupSignature(0, ())
    assert parse_signature("Z/0") == AbelianGroupSignature(1, ())


def test_signature_parsing_rejects_negative_orders():
    for text in ["Z/-3", "Z + Z/-1", "Z/2 + Z/-4", "Z^-1 + Z^2"]:
        with pytest.raises(ValueError, match="negative rank or torsion order"):
            parse_signature(text)


def test_presentation_shape():
    g = build_graph(parse_tuple("(1,3,3;2,2,2)"))
    matrix = h1_presentation(g)
    assert len(matrix[0]) == 3  # one generator per cycle
    assert len(matrix) >= 3


def test_h1_known_values():
    for text, group in [
        ("(1,1,1;0,0,0)", "0"),
        ("(1,1,3;2,0,2)", "Z"),
        ("(2,2,2;1,1,3)", "0"),
        ("(1,1,5;0,0,2)", "Z/3"),
    ]:
        f = parse_tuple(text)
        assert str(h1(build_graph(f))) == group
        assert str(h1_of_tuple(f)) == group


def test_lens_family_calibration():
    """Two vanishing shifts give the lens space of order half the
    remaining cycle length; the chain-complex route must agree."""
    for p in range(2, 9):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            f = parse_tuple(f"(1,1,{2 * p - 1};0,0,{2 * q})")
            expected = lens_expectation(f)
            assert expected == AbelianGroupSignature(0, (p,))
            assert h1(build_graph(f)) == expected
            assert h1_of_tuple(f) == expected


def test_h1_of_tuple_matches_the_graph_route(admissible_upto):
    """The tuple kernel builds h1_presentation's matrix row for row, and
    so the same group, on every admissible tuple up to complexity 15."""
    checked = 0
    for f in admissible_upto(15):
        g = build_graph(f)
        assert h1_presentation_of_tuple(f) == h1_presentation(g), f
        assert h1_of_tuple(f) == h1(g), f
        checked += 1
    assert checked == 4477


def test_h1_closed_form_matches_smith_route(admissible_upto):
    """The closed form agrees with Smith reduction of the same relators on
    every admissible tuple up to complexity 19, and every group shape a
    genus-2 presentation allows occurs among them."""
    shapes = set()
    checked = 0
    for f in admissible_upto(19):
        rows = h1_presentation_of_tuple(f)
        group = h1_of_tuple(f)
        assert group == cokernel(rows, 3), f
        relators = rows[:3]
        assert all(sum(row) == 0 for row in relators), f
        assert [sum(col) for col in zip(*relators)] == [0, 0, 0], f
        shapes.add((group.free_rank, len(group.torsion)))
        checked += 1
    assert checked == 17561
    assert shapes == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}


def _signature_from_minors(matrix):
    factors = minors_gcd_factors(matrix)
    return AbelianGroupSignature(
        len(matrix[0]) - len(factors), tuple(d for d in factors if d > 1)
    )


def test_closed_form_against_minor_gcds():
    """The closed form on 3 x 3 relator blocks with the kill row appended,
    against the invariant factors read off the gcds of all minors."""
    rng = random.Random(19)

    def entry():
        return rng.randrange(-6, 7)

    blocks = [
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],  # Z^2
        [[3, 0, 0], [0, 0, 0], [-1, 0, 0]],  # Z^2: only C_0 appears
        [[0, 0, 0], [0, 0, 0], [4, 2, -6]],  # rank 1, last row only: Z + Z/2
        [[5, 2, 0], [7, 0, 4], [1, 2, 4]],  # Z/2 + Z/4
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],  # trivial
        [[1, -3, 2], [1, 2, -3], [-2, 1, 1]],  # rows sum to 0: Z/5
    ]
    for _ in range(100):
        blocks.append([[entry() for _ in range(3)] for _ in range(3)])
    for _ in range(40):  # rank 1: an outer product
        u = [entry() for _ in range(3)]
        v = [entry() for _ in range(3)]
        blocks.append([[x * y for y in v] for x in u])
    for _ in range(40):  # a common factor, so D1 > 1 whenever D2 != 0
        k = rng.randrange(2, 5)
        blocks.append([[k * entry() for _ in range(3)] for _ in range(3)])

    def det(a):
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    assert any(det(block) < 0 for block in blocks)
    shapes = set()
    for block in blocks:
        matrix = block + [[1, 0, 0]]
        group = _cokernel_killing_c0(matrix)
        assert group == _signature_from_minors(matrix), block
        assert group == cokernel(matrix, 3), block
        shapes.add((group.free_rank, len(group.torsion)))
    assert _cokernel_killing_c0(blocks[3] + [[1, 0, 0]]) == AbelianGroupSignature(
        0, (2, 4)
    )
    assert shapes == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}


def test_h1_of_tuple_rejects_inadmissible_tuples():
    for text, condition in [
        ("(3,3,3;0,0,2)", "{2,3}-residue count"),
        ("(1,1,3;0,0,0)", "{2,3}-residue count"),
        ("(2,2,2;0,0,0)", "h+q parity"),
        ("(1,1,3;1,1,3)", "h+q parity"),  # three {2,3}-residues all the same
    ]:
        with pytest.raises(ConditionError) as err:
            h1_of_tuple(parse_tuple(text))
        assert err.value.condition == condition


def test_lens_expectation_scope():
    assert str(lens_expectation(parse_tuple("(1,1,1;0,0,0)"))) == "0"
    assert lens_expectation(parse_tuple("(1,3,3;2,2,2)")) is None
