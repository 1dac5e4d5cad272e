from fractions import Fraction

import pytest

from arithex.projrat import (
    INF,
    UNDEFINED,
    fmt,
    inv,
    p_add,
    p_div,
    p_mul,
    p_neg,
    p_sub,
)

F = Fraction


def test_add_finite_and_infinity():
    assert p_add(F(1, 2), INF) is INF
    assert p_add(INF, F(1, 2)) is INF
    assert p_add(INF, INF) is UNDEFINED
    assert p_add(F(1, 3), F(1, 6)) == F(1, 2)


def test_sub_rules():
    assert p_sub(F(5), INF) is INF
    assert p_sub(INF, F(5)) is INF
    assert p_sub(INF, INF) is UNDEFINED
    assert p_sub(F(2), F(2)) == 0


def test_mul_rules():
    assert p_mul(INF, INF) is INF
    assert p_mul(F(0), INF) is UNDEFINED
    assert p_mul(INF, F(0)) is UNDEFINED
    assert p_mul(F(2, 3), F(3, 2)) == 1
    assert p_mul(F(-4), INF) is INF


def test_div_rules():
    assert p_div(F(3), F(0)) is INF
    assert p_div(F(0), F(0)) is UNDEFINED
    assert p_div(INF, INF) is UNDEFINED
    assert p_div(F(0), INF) == 0
    assert p_div(F(7), INF) == 0
    assert p_div(F(6), F(2, 7)) == 21


def test_neg_total():
    assert p_neg(F(3, 4)) == F(-3, 4)
    assert p_neg(INF) is INF
    assert p_neg(F(0)) == 0


def test_inv_involution():
    for v in (F(0), F(1), F(-7, 3), INF):
        assert inv(inv(v)) == v or inv(inv(v)) is v


@pytest.mark.parametrize("op", [p_add, p_mul])
def test_commutativity(op):
    vals = [F(0), F(1), F(-2, 5), INF]
    for a in vals:
        for b in vals:
            x, y = op(a, b), op(b, a)
            assert (x is y) or (x == y)


def test_full_case_matrix():
    # One representative per class: finite nonzero, zero, infinity.  Exactly
    # the four excluded forms come out undefined (inf/inf falls to 0*inf).
    nz, z = F(5), F(0)
    undefined_cells = set()
    for name, op in (("+", p_add), ("-", p_sub), ("*", p_mul), ("/", p_div)):
        for la, a in (("n", nz), ("0", z), ("i", INF)):
            for lb, b in (("n", nz), ("0", z), ("i", INF)):
                if op(a, b) is UNDEFINED:
                    undefined_cells.add((name, la, lb))
    assert undefined_cells == {
        ("+", "i", "i"),
        ("-", "i", "i"),
        ("*", "0", "i"),
        ("*", "i", "0"),
        ("/", "0", "0"),
        ("/", "i", "i"),
    }


def test_field_agreement_on_finite_values():
    vals = [F(3, 2), F(-1), F(7), F(2, 5)]
    for a in vals:
        for b in vals:
            assert p_add(a, b) == a + b
            assert p_sub(a, b) == a - b
            assert p_mul(a, b) == a * b
            assert p_div(a, b) == a / b


def test_fmt():
    assert fmt(F(21)) == "21"
    assert fmt(F(2, 3)) == "2/3"
    assert fmt(INF) == "inf"
    assert fmt(UNDEFINED) == "undefined"
