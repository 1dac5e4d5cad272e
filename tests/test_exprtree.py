from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithex import canon
from arithex.errors import InputError
from arithex.exprtree import (
    MAX_TERMS,
    DependencyLoss,
    DuplicateVariable,
    EmptyInput,
    ExprSyntaxError,
    Node,
    Var,
    eval_tree,
    parse,
    pretty,
    term_counts,
    to_canon,
    tree_variables,
)
from arithex.mpoly import MissingAssignment
from arithex.projrat import INF, UNDEFINED

F = Fraction


def test_parse_nested():
    t = parse("x1/(x2-x3/x4)")
    assert t == Node("/", Var(1), Node("-", Var(2), Node("/", Var(3), Var(4))))


def test_parse_left_associative():
    assert parse("x1-x2-x3") == Node("-", Node("-", Var(1), Var(2)), Var(3))
    assert parse("x1/x2/x3") == Node("/", Node("/", Var(1), Var(2)), Var(3))


def test_parse_whitespace():
    assert parse(" x1 + x2 * x3 ") == Node("+", Var(1), Node("*", Var(2), Var(3)))


def test_parse_duplicate_variable():
    with pytest.raises(DuplicateVariable) as err:
        parse("x1+x1")
    assert err.value.index == 1


def test_parse_rejects_unary_minus():
    with pytest.raises(ExprSyntaxError):
        parse("-x1-x2*x3")


def test_parse_rejects_constants():
    with pytest.raises(ExprSyntaxError):
        parse("x1+2")


def test_parse_rejects_non_ascii_digits():
    for text in ("x\u00b2", "x1+x\u0663"):  # superscript two, Arabic-Indic three
        with pytest.raises(ExprSyntaxError):
            parse(text)


def test_parse_empty():
    with pytest.raises(EmptyInput):
        parse("   ")


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1+(x2")
    assert err.value.position == 6


@pytest.mark.parametrize("text,position,found", [("x1 x2", 3, "x"), ("x1)", 2, ")")])
def test_parse_rejects_trailing_input(text, position, found):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert (err.value.position, err.value.expected, err.value.found) == (
        position,
        "end of input or an operator",
        found,
    )


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x1/(x2-x3/x4)", "x1/(x2-x3/x4)"),
        ("x1+x2+x3", "x1+x2+x3"),
        ("(x1+x2)*x3", "(x1+x2)*x3"),
        ("x1+(x2+x3)", "x1+(x2+x3)"),
        ("x1*(x2*x3)", "x1*(x2*x3)"),
        ("x1-(x2-x3)", "x1-(x2-x3)"),
        ("x1+x2*x3", "x1+x2*x3"),
    ],
)
def test_pretty(text, expected):
    assert pretty(parse(text)) == expected


def _random_tree(rng, indices):
    if len(indices) == 1:
        return Var(indices[0])
    cut = rng.randint(1, len(indices) - 1)
    op = rng.choice("+-*/")
    return Node(op, _random_tree(rng, indices[:cut]), _random_tree(rng, indices[cut:]))


def test_pretty_roundtrip_random():
    import random

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        idx = list(range(1, n + 1))
        rng.shuffle(idx)
        t = _random_tree(rng, idx)
        assert parse(pretty(t)) == t


def test_term_counts_match_the_canonical_form():
    # the counts follow from the tree alone, since no monomials merge
    import random

    rng = random.Random(14)
    for _ in range(600):
        n = rng.randint(1, 12)
        idx = list(range(1, n + 1))
        rng.shuffle(idx)
        t = _random_tree(rng, idx)
        f = to_canon(t)
        assert term_counts(t) == (len(f.num.terms), len(f.den.terms)), pretty(t)


def test_term_bound_is_exact():
    # a product of k two-variable sums has 2^k numerator terms: k = 17 is
    # the largest accepted, and a quotient flips it into the denominator
    def sums(k):
        return "*".join(f"(x{2 * i + 1}+x{2 * i + 2})" for i in range(k))

    assert MAX_TERMS == 2 ** 17
    assert term_counts(parse(sums(17))) == (MAX_TERMS, 1)
    assert term_counts(parse(f"x99/({sums(17)})")) == (1, MAX_TERMS)
    for text in (sums(18), f"x99/({sums(18)})", f"{sums(17)}+x99*x98"):
        with pytest.raises(InputError, match=f"more than {MAX_TERMS} terms"):
            parse(text)


def test_eval_tree_puzzle():
    t = parse("x1/(x2-x3/x4)")
    assert eval_tree(t, {1: F(6), 2: F(1), 3: F(5), 4: F(7)}) == 21


def test_eval_tree_undefined_propagates():
    assert eval_tree(parse("x1+x2"), {1: INF, 2: INF}) is UNDEFINED
    assert eval_tree(parse("x1/x2"), {1: F(1), 2: F(0)}) is INF
    assert eval_tree(parse("(x1+x2)*x3"), {1: INF, 2: INF, 3: F(1)}) is UNDEFINED
    # only the right operand is undefined
    assert eval_tree(parse("x1+x2/x3"), {1: F(1), 2: F(0), 3: F(0)}) is UNDEFINED


def test_eval_tree_missing_assignment():
    with pytest.raises(MissingAssignment):
        eval_tree(parse("x1+x2"), {1: F(1)})


def test_to_canon_examples():
    assert to_canon(parse("x1/(x2/x3)")) == to_canon(parse("x1*x3/x2"))
    assert to_canon(parse("x1-x2-x3")) == to_canon(parse("x1-(x2+x3)"))
    assert to_canon(parse("x1*(x2+x3)")) == to_canon(parse("(x2+x3)*x1"))


def test_tree_variables():
    assert tree_variables(parse("x2*(x7-x3)")) == frozenset({2, 3, 7})


def test_to_canon_detects_a_lost_variable(monkeypatch):
    # a combine whose polynomials drop the right operand's least variable
    # but whose variable set still names it
    combine = canon.combine

    def lossy(op, f, g):
        h = combine(op, f, g)
        lost = min(g.varset)
        num, den = h.num.substitute_zero(lost), h.den.substitute_zero(lost)
        return canon.CanonForm(num, den, h.varset)

    monkeypatch.setattr(canon, "combine", lossy)
    with pytest.raises(DependencyLoss, match=r"depends on \[1\] but tree uses \[1, 2\]"):
        to_canon(parse("x1+x2"))


@given(st.text(max_size=20))
@settings(max_examples=500)
def test_parser_totality_fuzz(text):
    # every input either parses or raises one of the documented diagnostics
    try:
        tree = parse(text)
    except (ExprSyntaxError, DuplicateVariable):
        return
    assert parse(pretty(tree)) == tree
