from fractions import Fraction

import pytest

from arithex.canon import (
    CanonForm,
    NonContiguousVariables,
    Relabelings,
    OverlappingVariables,
    VariableNotPresent,
    _signature_cells,
    all_perms,
    apply_perm,
    assign_zero,
    atom,
    combine,
    eval_form,
    form_str,
    is_isomorphic,
    is_monic_form,
    negate,
    orbit,
    orbit_key,
    reduce_quotient,
    relabel_contiguous,
    swap_operands,
)
from arithex.exprtree import parse, to_canon
from arithex.mpoly import MultiPoly, PolyTable
from arithex.oracle import generate
from arithex.projrat import INF, UNDEFINED

F = Fraction


def form(text: str) -> CanonForm:
    return to_canon(parse(text))


def test_atom():
    a = atom(1)
    assert a.num == MultiPoly.variable(1)
    assert a.den == MultiPoly.constant(1)
    assert atom(7).varset == frozenset({7})
    assert is_monic_form(atom(3))


def test_combine_nested_division():
    f = combine("/", atom(1), combine("/", atom(2), atom(3)))
    assert form_str(f) == "(x1*x3) / (x2)"
    assert f == form("x1/(x2/x3)")


def test_combine_reference_form():
    f = form("(x1-x2)/(x3/x4+x5) + x6/x7")
    assert f.num.text() == "x1*x4*x7 - x2*x4*x7 + x3*x6 + x4*x5*x6"
    assert f.den.text() == "x3*x7 + x4*x5*x7"


def test_combine_monic_denominator_flip():
    f = form("(x3-x2)/(x5*x4-x1)")
    assert f.num.text() == "x2 - x3"
    assert f.den.text() == "x1 - x4*x5"
    assert is_monic_form(f)


def test_combine_rejects_overlap():
    with pytest.raises(OverlappingVariables):
        combine("+", atom(1), atom(1))


def test_identical_rewrites():
    assert form("x1-x2-x3") == form("x1-(x2+x3)")
    assert form("x1*(x2+x3)") == form("(x2+x3)*x1")


def test_negate():
    f = form("x1-x2")
    g = negate(f)
    assert g.num.text() == "-x1 + x2"
    assert negate(g) == f
    h = negate(form("x1/x2"))
    assert h.num.text() == "-x1"
    assert not is_monic_form(h)


@pytest.mark.parametrize(
    "f, g",
    [("x1", "x2"), ("x1+x3", "x2*x4"), ("x1-x3", "x2/x4"), ("x2/(x1-x3)", "x4"), ("x3-x1", "x2")],
)
@pytest.mark.parametrize("op", ["-", "/"])
def test_swap_operands_matches_reversed_combine(op, f, g):
    # the reversed result is derived without a product, and keeps the
    # denominator monic: (x3-x1) / x2 swaps to -x2 over x1-x3
    f, g = form(f), form(g)
    swapped = swap_operands(op, combine(op, f, g))
    expected = combine(op, g, f)
    assert swapped == expected and swapped.varset == expected.varset
    assert swapped.den.is_monic()
    # through one build table, the swapped form holds the table's copies
    table = PolyTable()
    f, g = (CanonForm(table.intern(h.num), table.intern(h.den), h.varset) for h in (f, g))
    swapped = swap_operands(op, combine(op, f, g, table=table), table)
    assert swapped == expected and swapped.varset == expected.varset
    assert swapped.num is table.intern(swapped.num)
    assert swapped.den is table.intern(swapped.den)


def test_swap_operands_rejects_symmetric_ops():
    with pytest.raises(ValueError):
        swap_operands("+", form("x1+x2"))


def test_is_monic_form_examples():
    assert is_monic_form(form("(x3-x2)/(x5*x4-x1)"))
    assert not is_monic_form(negate(form("x1/x2")))
    for k in (1, 4, 9):
        assert is_monic_form(atom(k))


def test_apply_perm_shift():
    f = form("x3 + x2*x7")
    shifted = apply_perm({2: 3, 3: 4, 7: 8}, f)
    assert shifted == form("x4 + x3*x8")


def test_apply_perm_group_action_laws():
    f = form("x1/(x2-x3)+x4")
    assert apply_perm({}, f) == f
    sigma = {1: 2, 2: 4, 4: 1}
    tau = {2: 3, 3: 2}
    tau_then_sigma = {1: 2, 2: 3, 3: 4, 4: 1}
    assert apply_perm(sigma, apply_perm(tau, f)) == apply_perm(tau_then_sigma, f)


def test_isomorphic_worked_example():
    f = form("x1/(x2-x3)+x4")
    g = form("x2 - x4/(x3-x1)")
    found = is_isomorphic(f, g)
    assert found is not None
    assert apply_perm(found, f) == g
    # the inverse direction uses the cycle x1 -> x2 -> x4 -> x1
    assert apply_perm({1: 2, 2: 4, 4: 1}, g) == f


def test_isomorphic_product_example():
    f = relabel_contiguous(form("(x1+x2)*(x3-x4)"))
    g = relabel_contiguous(form("(x4-x1)*(x5+x3)"))
    assert is_isomorphic(f, g) is not None


def test_not_isomorphic():
    assert is_isomorphic(form("x1+x2"), form("x1-x2")) is None
    # equal signature cells, yet no bijection of them maps one onto the other
    assert is_isomorphic(form("(x1+x2)*(x3+x4)"), form("(x1-x2)*(x3-x4)")) is None
    # forms of different sizes, and unequal signature cells
    assert is_isomorphic(form("x1+x2"), form("x1+x2+x3")) is None
    assert is_isomorphic(form("x1+x2"), form("x1*x2")) is None


def test_isomorphic_requires_contiguous():
    with pytest.raises(NonContiguousVariables):
        is_isomorphic(form("x1+x3"), form("x1+x3"))


def test_orbit_key():
    assert orbit_key(form("x2-x1")) == orbit_key(form("x1-x2"))
    assert orbit_key(form("x1*x2+x3")) == orbit_key(form("x1+x2*x3"))
    assert orbit_key(form("x1+x2")) != orbit_key(form("x1-x2"))


@pytest.mark.parametrize(
    "text, walked",
    [
        # (1 3)(2 4) is an automorphism but no transposition is: 24 walked
        ("(x1-x2)*(x3-x4)", 24),
        # twin cells {1,2}, {3,4}, {5,6}; the cell swaps are automorphisms
        # too, but not twin transpositions: 720/8 walked, 15 images
        ("(x1+x2)*(x3+x4)*(x5+x6)", 90),
        # one cell: one relabeling walked, one image
        ("x1*x2*x3*x4*x5*x6*x7", 1),
    ],
)
def test_orbit_walks_one_relabeling_per_twin_coset(text, walked):
    f = form(text)
    n = len(f.varset)
    relabels = Relabelings(n)
    assert orbit(f, relabels) == {apply_perm(p, f) for p in all_perms(n)}
    assert sum(len(pairs) for pairs in relabels._transversals.values()) == walked


def per_variable_signature_cells(f: CanonForm, n: int) -> dict:
    """The signature cells with one pass over the terms per variable."""
    cells: dict = {}
    for v in range(1, n + 1):
        sig = tuple(
            tuple(sorted((len(m), abs(c)) for m, c in p.terms if v in m)) for p in (f.num, f.den)
        )
        cells.setdefault(sig, []).append(v)
    return cells


def test_signature_cells_match_the_per_variable_definition():
    family = generate(5)
    checked = 0
    for varset, aeset in family.sets.items():
        if varset != frozenset(range(1, len(varset) + 1)):
            continue
        n = len(varset)
        for f in aeset.entries:
            # same cells, listed in the same order
            assert list(_signature_cells(f, n).items()) == list(
                per_variable_signature_cells(f, n).items()
            )
            checked += 1
    assert checked == 1 + 6 + 68 + 1170 + 27142


def test_assign_zero_form_case():
    f = form("(x1+x2)/(x5-x3/x4)")
    res = assign_zero(f, 3)
    assert res.kind == "form"
    assert res.form == form("(x1+x2)/x5")


def test_assign_zero_zero_and_infinity():
    f = form("x1*(x2-x3/x4)")
    assert assign_zero(f, 1).kind == "zero"
    assert assign_zero(f, 4).kind == "infinity"


def test_assign_zero_non_ae():
    f = form("x1-x2")
    res = assign_zero(f, 1)
    assert res.kind == "non_ae"
    assert res.num.text() == "-x2"
    assert res.den.text() == "1"


def test_assign_zero_multivariable_common_factor():
    # substituting can expose a full polynomial factor shared by both sides
    f = form("x4/(x5-x3/(x1+x2))")
    res = assign_zero(f, 3)
    assert res.kind == "form"
    assert res.form == form("x4/x5")


def test_assign_zero_missing_variable():
    with pytest.raises(VariableNotPresent):
        assign_zero(form("x1+x2"), 9)


def test_eval_form_puzzle_value():
    f = form("x1/(x2-x3/x4)")
    assert f.num.text() == "x1*x4"
    assert f.den.text() == "x2*x4 - x3"
    assert eval_form(f, {1: F(6), 2: F(1), 3: F(5), 4: F(7)}) == 21


def test_eval_form_infinity_and_zero():
    f = form("x1/(x2+x3)")
    assert eval_form(f, {1: F(1), 2: F(1), 3: F(-1)}) is INF
    g = form("(x1-x2)/x3")
    assert eval_form(g, {1: F(1), 2: F(1), 3: F(1)}) == 0


def test_eval_form_undefined_when_both_vanish():
    f = form("x1/x2")
    assert eval_form(f, {1: F(0), 2: F(0)}) is UNDEFINED


def test_variables():
    f = form("x4 + x1*x5 - x7")
    assert f.varset == frozenset({1, 4, 5, 7})
    assert atom(3).varset == frozenset({3})
    f, g = form("x1+x2"), form("x3/x4")
    assert combine("*", f, g).varset == f.varset | g.varset


def test_combine_symmetries():
    f, g = form("x1-x2"), form("x3*x4")
    assert combine("+", f, g) == combine("+", g, f)
    assert combine("*", f, g) == combine("*", g, f)
    assert combine("-", f, g) == negate(combine("-", g, f))


def test_reduce_quotient_is_identity_on_combined_forms():
    for text in ("x1/(x2-x3/x4)", "(x1-x2)/(x3/x4+x5) + x6/x7", "x1*(x2+x3)-x4"):
        f = form(text)
        assert reduce_quotient(f.num, f.den) == (f.num, f.den)


def test_all_perms_count():
    assert sum(1 for _ in all_perms(4)) == 24


def test_perm_inverse_roundtrip():
    sigma = {1: 2, 2: 4, 4: 1, 3: 5, 5: 3}
    inverse = {2: 1, 4: 2, 1: 4, 5: 3, 3: 5}
    f = form("x1/(x2-x3/x4)+x5")
    assert apply_perm(sigma, f) != f
    assert apply_perm(sigma, apply_perm(inverse, f)) == f
    assert apply_perm(inverse, apply_perm(sigma, f)) == f


def _sample_points(rng, varset, f, g, count=50):
    points = []
    while len(points) < count:
        point = {v: F(rng.randint(-20, 20), rng.randint(1, 8)) for v in varset}
        if f.den.evaluate(point) == 0 or g.den.evaluate(point) == 0:
            continue
        points.append(point)
    return points


def test_identity_soundness_functional_equality():
    # equal forms agree at every sampled point; different forms must differ
    # at some point of a 50-point sample avoiding denominator zeros
    import random

    from arithex.exprtree import Node, Var

    def random_tree(rng, indices):
        if len(indices) == 1:
            return Var(indices[0])
        cut = rng.randint(1, len(indices) - 1)
        return Node(
            rng.choice("+-*/"),
            random_tree(rng, indices[:cut]),
            random_tree(rng, indices[cut:]),
        )

    rng = random.Random(424242)
    for _ in range(300):
        n = rng.randint(2, 4)
        order1 = list(range(1, n + 1))
        order2 = list(range(1, n + 1))
        rng.shuffle(order1)
        rng.shuffle(order2)
        f = to_canon(random_tree(rng, order1))
        g = to_canon(random_tree(rng, order2))
        points = _sample_points(rng, range(1, n + 1), f, g)
        agree = all(eval_form(f, p) == eval_form(g, p) for p in points)
        assert (f == g) == agree, (f, g)


def test_assign_zero_agrees_with_evaluation():
    import random

    rng = random.Random(99)
    texts = [
        "(x1+x2)/(x5-x3/x4)",
        "x1/(x2-x3/x4)",
        "x4/(x5-x3/(x1+x2))",
        "x1*(x2+x3)-x4",
        "(x1-x2)/(x3/x4+x5)",
        "x1/x2+x3*x4",
    ]
    from arithex.projrat import p_div

    for text in texts:
        f = form(text)
        for i in sorted(f.varset):
            res = assign_zero(f, i)
            for _ in range(25):
                point = {
                    v: F(rng.randint(-9, 9), rng.randint(1, 5)) for v in f.varset
                }
                point[i] = F(0)
                direct = eval_form(f, point)
                if res.kind == "zero":
                    expected = F(0)
                elif res.kind == "infinity":
                    expected = INF
                elif res.kind == "form":
                    expected = eval_form(res.form, point)
                else:
                    expected = p_div(res.num.evaluate(point), res.den.evaluate(point))
                if direct is UNDEFINED or expected is UNDEFINED:
                    continue
                assert direct == expected or direct is expected, (text, i, point)
