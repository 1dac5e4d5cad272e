from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithex.mpoly import (
    ONE,
    ZERO,
    MissingAssignment,
    MultiPoly,
    PolyTable,
    ZeroPolynomial,
    disjoint_factors,
)
from arithex.oracle import generate

V = MultiPoly.variable
C = MultiPoly.constant


def P(*terms):
    """Shorthand: P(((1, 2), 1), ((3,), -1)) -> x1*x2 - x3."""
    return MultiPoly.from_dict(dict(terms))


def test_term_order_examples():
    # constant first, a proper prefix before its extensions, then left to right
    p = P(((2, 4), 1), ((2, 3, 4), 1), ((2,), 1), ((1, 3), 1), ((), 1))
    assert [m for m, _ in p.terms] == [(), (1, 3), (2,), (2, 3, 4), (2, 4)]
    assert p.text() == "1 + x1*x3 + x2 + x2*x3*x4 + x2*x4"


monomials = st.lists(st.integers(1, 9), unique=True, max_size=4).map(
    lambda vs: tuple(sorted(vs))
)


def test_add_sub():
    assert V(1) + V(2) == P(((1,), 1), ((2,), 1))
    assert P(((1, 3), 1), ((2,), 1)) - V(2) == P(((1, 3), 1))
    assert (V(1) + (-V(1))) == ZERO
    assert not (V(1) - V(1))


def test_mul_distributes():
    lhs = (V(1) + V(4)).mul_disjoint(V(2) - P(((3, 5), 1)))
    assert lhs == P(((1, 2), 1), ((1, 3, 5), -1), ((2, 4), 1), ((3, 4, 5), -1))
    assert lhs.text() == "x1*x2 - x1*x3*x5 + x2*x4 - x3*x4*x5"


def test_mul_identity_and_disjointness():
    assert ONE.mul_disjoint(V(7)) == V(7)
    # disjoint factors merge every pair of monomials into a distinct one
    product = (V(1) + V(2)).mul_disjoint(V(3) - V(4))
    assert product.text() == "x1*x3 - x1*x4 + x2*x3 - x2*x4"


def test_is_monic():
    assert P(((2,), 1), ((3, 4), -1)).is_monic()        # x2 - x3*x4
    assert not P(((2,), 1), ((1, 3), -1)).is_monic()    # x2 - x1*x3
    with pytest.raises(ZeroPolynomial):
        ZERO.is_monic()


@given(
    st.dictionaries(monomials, st.integers(-9, 9).filter(bool), min_size=1, max_size=6)
)
@settings(max_examples=200)
def test_monic_dichotomy(d):
    p = MultiPoly.from_dict(d)
    if p:
        assert p.is_monic() != (-p).is_monic()


def test_decompose_examples():
    p = P(((2, 3, 5), 1), ((2, 4), 1))  # x2*x3*x5 + x2*x4
    head, tail = p.decompose(2)
    assert head == P(((3, 5), 1), ((4,), 1))
    assert tail == ZERO
    head, tail = p.decompose(3)
    assert head == P(((2, 5), 1))
    assert tail == P(((2, 4), 1))
    head, tail = V(7).decompose(1)
    assert head == ZERO and tail == V(7)


@given(
    st.dictionaries(monomials, st.integers(-9, 9).filter(bool), max_size=6),
    st.integers(1, 9),
)
@settings(max_examples=300)
def test_decompose_roundtrip_and_derivative_criterion(d, i):
    p = MultiPoly.from_dict(d)
    head, tail = p.decompose(i)
    assert i not in head.variables() and i not in tail.variables()
    assert head.mul_disjoint(V(i)) + tail == p if head else tail == p
    # a variable occurs iff its derivative part is nonzero
    assert (i in p.variables()) == bool(head)
    # finite-difference check of the derivative part: p(x_i=1) - p(x_i=0) = head
    one_pt = {v: Fraction(1) for v in p.variables() | {i}}
    zero_pt = {**one_pt, i: Fraction(0)}
    assert p.evaluate(one_pt) - p.evaluate(zero_pt) == head.evaluate(one_pt)


def test_substitute_zero():
    p = P(((2, 3, 5), 1), ((2, 4), 1))
    assert p.substitute_zero(2) == ZERO
    assert P(((1, 3), 1), ((2,), 1)).substitute_zero(3) == V(2)
    assert V(5).substitute_zero(1) == V(5)


def test_evaluate():
    assert P(((1, 4), 1)).evaluate({1: Fraction(6), 4: Fraction(7)}) == 42
    assert ZERO.evaluate({}) == 0
    pt = {2: Fraction(1), 3: Fraction(5), 4: Fraction(7)}
    assert P(((2, 4), 1), ((3,), -1)).evaluate(pt) == 2
    with pytest.raises(MissingAssignment):
        V(9).evaluate({})


@given(
    st.dictionaries(monomials, st.integers(-5, 5).filter(bool), max_size=5),
    st.dictionaries(monomials, st.integers(-5, 5).filter(bool), max_size=5),
)
@settings(max_examples=150)
def test_evaluation_respects_ring_ops(da, db):
    pa, pb = MultiPoly.from_dict(da), MultiPoly.from_dict(db)
    point = {v: Fraction(v * 2 - 11, 3) for v in range(1, 10)}
    assert (pa + pb).evaluate(point) == pa.evaluate(point) + pb.evaluate(point)
    if not (pa.variables() & pb.variables()):
        assert pa.mul_disjoint(pb).evaluate(point) == pa.evaluate(point) * pb.evaluate(point)


def test_poly_table_negates_each_stored_polynomial_once():
    table = PolyTable()
    p = table.intern(P(((1, 3), 1), ((2,), -1)))  # x1*x3 - x2
    neg = table.negation(p)
    assert neg == -p and table.intern(-p) is neg
    assert table.negation(p) is neg
    # the negation's own negation is the stored p, not a fresh copy
    assert table.negation(neg) is p


def test_content():
    assert (V(1) + V(2)).content() == 1
    assert P(((1,), 2), ((2,), -2)).content() == 2
    assert ZERO.content() == 0


def test_text_format():
    assert ZERO.text() == "0"
    assert ONE.text() == "1"
    assert C(-3).text() == "-3"
    assert P(((1,), -1), ((2,), 1)).text() == "-x1 + x2"
    assert P(((1,), 2), ((2, 3), -4)).text() == "2*x1 - 4*x2*x3"
    p = P(((1,), 1), ((2,), 1))
    assert p.text() is p.text()  # serialized once


def reference_text(p: MultiPoly) -> str:
    """Reference serializer: every term's text built afresh, with no shared table."""
    if not p.terms:
        return "0"
    parts = []
    for k, (m, c) in enumerate(p.terms):
        mag = abs(c)
        if m:
            body = "*".join(f"x{v}" for v in m)
            if mag != 1:
                body = f"{mag}*{body}"
        else:
            body = str(mag)
        if k == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def test_text_matches_reference_on_every_stored_polynomial():
    family = generate(5)
    polys = {p for aeset in family.sets.values() for f in aeset.entries for p in (f.num, f.den)}
    assert len(polys) > 5000
    for p in polys:
        assert p.text() == reference_text(p)


@pytest.mark.parametrize(
    "terms",
    [
        (((2, 10), 1),),  # x10*x2 sorts as x2*x10
        (((10, 12), -1), ((3,), 1)),
        (((), 1),),
        (((), -1), ((1, 11), 1)),
        (((), 7), ((4,), -12), ((2, 10, 13), 3)),
        (((), -25), ((10,), -1)),
        (((1, 2), -2), ((1, 3), 1), ((5,), 100)),
    ],
)
def test_text_matches_reference_on_handmade_polynomials(terms):
    p = P(*terms)
    assert p.text() == reference_text(p)


def test_monomial_text_shared_between_polynomials():
    # the text of x14*x27 is built for the first polynomial, read for the rest
    first = P(((14, 27), 1), ((3,), -1))
    assert first.text() == "-x3 + x14*x27"
    for other in (P(((14, 27), -1)), P(((14, 27), 5), ((), 2)), P(((14, 27), -3), ((29,), 1))):
        assert other.text() == reference_text(other)
    assert P(((14, 27), -3), ((29,), 1)).text() == "-3*x14*x27 + x29"


def test_disjoint_factors_simple():
    # x1*x4 + x2*x4 = (x1 + x2) * x4
    sign, content, factors = disjoint_factors(P(((1, 4), 1), ((2, 4), 1)))
    assert sign == 1 and content == 1
    assert factors == [V(1) + V(2), V(4)]


def test_disjoint_factors_sign_and_content():
    p = P(((1, 2), -2), ((1, 3), -2))  # -2 * x1 * (x2 + x3)
    sign, content, factors = disjoint_factors(p)
    assert sign == -1 and content == 2
    assert factors == [V(1), V(2) + V(3)]


def test_disjoint_factors_irreducible():
    p = V(1) + V(2)
    assert disjoint_factors(p) == (1, 1, [p])
    q = P(((1, 2), 1), ((1,), 1), ((2,), 1))  # x1*x2 + x1 + x2: no split
    assert disjoint_factors(q) == (1, 1, [q])


def test_disjoint_factors_with_constant_term():
    p = P(((1, 2), 1), ((2,), 1))  # (x1 + 1) * x2
    sign, content, factors = disjoint_factors(p)
    assert sign == 1 and content == 1
    assert factors == [V(1) + ONE, V(2)]


@given(
    st.lists(
        st.dictionaries(monomials, st.integers(-4, 4).filter(bool), min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=200, deadline=None)
def test_disjoint_factors_recovers_products(dicts):
    # Build a product of polynomials forced onto disjoint variable blocks,
    # then check the factorization multiplies back to the original.
    polys = []
    for blk, d in enumerate(dicts):
        shifted = {tuple(v + 10 * blk for v in m): c for m, c in d.items()}
        polys.append(MultiPoly.from_dict(shifted))
    product = ONE
    for q in polys:
        product = product.mul_disjoint(q)
    if not product:
        return
    sign, content, factors = disjoint_factors(product)
    rebuilt = C(sign * content)
    for f in factors:
        rebuilt = rebuilt.mul_disjoint(f)
        assert f.is_monic() and f.content() == 1
    assert rebuilt == product
