"""Seeded randomized property suites shared by the acceptance tests.

Each suite runs a fixed number of cases from an explicit random seed, so a
run is reproducible byte for byte.  Suites return the number of executed
checks; any violation raises AssertionError immediately.
"""

import random
from fractions import Fraction

from arithex import canon, oracle
from arithex.canon import apply_perm, combine, eval_form, is_isomorphic, negate
from arithex.exprtree import Node, Var, eval_tree, to_canon, tree_variables
from arithex.mpoly import MultiPoly
from arithex.projrat import INF, UNDEFINED, p_add, p_div, p_mul, p_sub


def random_tree(rng, indices):
    if len(indices) == 1:
        return Var(indices[0])
    cut = rng.randint(1, len(indices) - 1)
    return Node(
        rng.choice("+-*/"),
        random_tree(rng, indices[:cut]),
        random_tree(rng, indices[cut:]),
    )


def random_form(rng, variables):
    order = list(variables)
    rng.shuffle(order)
    return to_canon(random_tree(rng, order))


def random_perm(rng, variables):
    src = sorted(variables)
    dst = src[:]
    rng.shuffle(dst)
    return dict(zip(src, dst))


def random_poly(rng, max_vars=6, max_terms=6):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        size = rng.randint(0, max_vars)
        mono = tuple(sorted(rng.sample(range(1, max_vars + 1), size)))
        coeffs[mono] = rng.randint(-9, 9)
    return MultiPoly.from_dict(coeffs)


def random_point(rng, variables):
    return {
        v: Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for v in variables
    }


def suite_group_action_laws(seed, cases):
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(2, 5)
        f = random_form(rng, range(1, n + 1))
        sigma = random_perm(rng, range(1, n + 1))
        tau = random_perm(rng, range(1, n + 1))
        assert apply_perm({}, f) == f
        tau_then_sigma = {k: sigma[tau[k]] for k in tau}
        assert apply_perm(sigma, apply_perm(tau, f)) == apply_perm(tau_then_sigma, f)
    return cases


def suite_negation(seed, cases):
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 5)
        f = random_form(rng, range(1, n + 1))
        sigma = random_perm(rng, range(1, n + 1))
        assert negate(negate(f)) == f
        assert negate(apply_perm(sigma, f)) == apply_perm(sigma, negate(f))
        assert canon.is_monic_form(f) != canon.is_monic_form(negate(f))
    return cases


def suite_combine_symmetries(seed, cases):
    rng = random.Random(seed)
    for _ in range(cases):
        na = rng.randint(1, 3)
        nb = rng.randint(1, 3)
        f = random_form(rng, range(1, na + 1))
        g = random_form(rng, range(na + 1, na + nb + 1))
        assert combine("+", f, g) == combine("+", g, f)
        assert combine("*", f, g) == combine("*", g, f)
        assert combine("-", f, g) == negate(combine("-", g, f))
    return cases


def suite_decompose_roundtrip(seed, cases):
    rng = random.Random(seed)
    for _ in range(cases):
        p = random_poly(rng)
        i = rng.randint(1, 6)
        head, tail = p.decompose(i)
        assert i not in head.variables() and i not in tail.variables()
        rebuilt = head.mul_disjoint(MultiPoly.variable(i)) + tail if head else tail
        assert rebuilt == p
    return cases


def suite_derivative_criterion(seed, cases):
    rng = random.Random(seed)
    for _ in range(cases):
        p = random_poly(rng)
        i = rng.randint(1, 6)
        head, _ = p.decompose(i)
        assert (i in p.variables()) == bool(head)
        point = random_point(rng, p.variables() | {i})
        shifted = {**point, i: point[i] + 1}
        assert p.evaluate(shifted) - p.evaluate(point) == head.evaluate(point)
    return cases


def suite_eval_agreement(seed, cases):
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        n = rng.randint(1, 5)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        tree = random_tree(rng, order)
        form = to_canon(tree)
        point = random_point(rng, tree_variables(tree))
        tree_value = eval_tree(tree, point)
        if tree_value is UNDEFINED or form.den.evaluate(point) == 0:
            continue
        assert isinstance(tree_value, Fraction)
        assert eval_form(form, point) == tree_value
        done += 1
    assert done > cases // 2, "too many skipped evaluation points"
    return done


def suite_class_operation_compatibility(seed, cases):
    rng = random.Random(seed)
    for _ in range(cases):
        na = rng.randint(1, 3)
        nb = rng.randint(1, 3)
        f = random_form(rng, range(1, na + 1))
        g = random_form(rng, range(na + 1, na + nb + 1))
        f2 = apply_perm(random_perm(rng, range(1, na + 1)), f)
        g2 = apply_perm(random_perm(rng, range(na + 1, na + nb + 1)), g)
        op = rng.choice("+-*/")
        a = canon.relabel_contiguous(combine(op, f, g))
        b = canon.relabel_contiguous(combine(op, f2, g2))
        assert is_isomorphic(a, b) is not None
    return cases


def suite_type2_pairing(seed, cases, family=None):
    rng = random.Random(seed)
    if family is None:
        family = oracle.generate(4)
    pool = []
    for k in (2, 3, 4):
        aeset = family.full_set(k)
        oracle.compute_orbits(aeset, k)
        pool.extend(aeset.entries.items())
    done = 0
    for _ in range(cases):
        form, entry = pool[rng.randrange(len(pool))]
        neg = negate(form)
        entries = family.sets[form.varset].entries
        if entry.cls.typeclass == 1:
            assert neg not in entries
        else:
            partner = entries[neg]
            assert partner.cls.typeclass == entry.cls.typeclass
            assert neg != form
        done += 1
    return done


def check_unit_forms(family):
    """Every stored form of a generated family has coefficients +-1, no
    monomial in both its numerator and denominator and a monic
    denominator, and keeps the two invariants that let canon.pair_combiner
    flip a sign only for / and build the + and - numerators without a
    merge: its numerator and its denominator are antichains (no monomial
    contains another) and no numerator monomial lies inside a denominator
    monomial.  Returns the number of forms checked."""
    done = 0
    for aeset in family.sets.values():
        for form in aeset.entries:
            assert all(abs(c) == 1 for _, c in form.num.terms + form.den.terms), form
            assert form.den.is_monic(), form
            num = [frozenset(m) for m, _ in form.num.terms]
            den = [frozenset(m) for m, _ in form.den.terms]
            for poly in (num, den):
                assert not any(a < b for a in poly for b in poly), form
            assert not any(a <= b for a in num for b in den), form
            done += 1
    return done


_PROJECTIVE_OPS = {"+": p_add, "-": p_sub, "*": p_mul, "/": p_div}

# one of these goes into each puzzle of scan_puzzles: zero, a negative, a
# fraction, and two that no float holds exactly and whose products overflow one
SCAN_SPECIALS = (Fraction(0), Fraction(-3), Fraction(-2, 3), Fraction(10**200), Fraction(-10**300))
SCAN_POOL = SCAN_SPECIALS + tuple(Fraction(x) for x in (0, 1, -1, 2, 3, 7, "1/2", "5/4"))


def scan_puzzles(seed, count, family, sizes):
    """Seeded (numbers, target) puzzles on family.  Puzzle i takes
    SCAN_SPECIALS[i % 5] among its numbers; its target is inf, 0 or, one
    time in two, the value some form of the level takes."""
    rng = random.Random(seed)
    puzzles = []
    for i in range(count):
        n = rng.choice(sizes)
        numbers = [rng.choice(SCAN_POOL) for _ in range(n)]
        numbers[rng.randrange(n)] = SCAN_SPECIALS[i % len(SCAN_SPECIALS)]
        if i % 4 < 2:
            target = (INF, Fraction(0))[i % 4]
        else:
            point = {j + 1: x for j, x in enumerate(numbers)}
            forms = list(family.full_set(n).entries)
            target = UNDEFINED
            while target is UNDEFINED:
                target = eval_form(rng.choice(forms), point)
        puzzles.append((numbers, target))
    return puzzles


def plain_scan_hits(family, numbers, target):
    """The forms on {1..n} that take target at x_i = numbers[i-1], in
    generation order: every form is valued through its first decomposition
    with projective arithmetic, and each hit is checked with eval_form."""
    point = {i + 1: x for i, x in enumerate(numbers)}
    level = frozenset(point)
    value = {}  # form -> its value, on the proper subsets
    hits = []
    for varset, aeset in family.sets.items():
        if not varset <= level:
            continue
        for form, entry in aeset.entries.items():
            if entry.op:
                a, b = value[entry.left], value[entry.right]
                v = UNDEFINED if a is UNDEFINED or b is UNDEFINED else _PROJECTIVE_OPS[entry.op](a, b)
            else:
                v = point[next(iter(varset))]
            if varset != level:
                value[form] = v
            elif v is not UNDEFINED and v == target:
                hits.append(form)
    for form in hits:
        assert eval_form(form, point) == target, form
    return hits


ALL_SUITES = (
    ("group-action-laws", suite_group_action_laws),
    ("negation-involution", suite_negation),
    ("combine-symmetries", suite_combine_symmetries),
    ("decompose-roundtrip", suite_decompose_roundtrip),
    ("derivative-criterion", suite_derivative_criterion),
    ("tree-vs-form-evaluation", suite_eval_agreement),
    ("class-operation-compatibility", suite_class_operation_compatibility),
    ("type2-negation-pairing", suite_type2_pairing),
)


def check_classes_are_orbits(aeset, k):
    """Every class compute_orbits finds in a generated set on {1..k} is the
    orbit of its rep: its entries are exactly the relabelings of the rep,
    every one stored, and its key and size are the orbit's.  Returns the
    number of classes checked."""
    orbits = oracle.compute_orbits(aeset, k)
    members = {}
    for form, entry in aeset.entries.items():
        members.setdefault(id(entry.cls), set()).add(form)
    for cls in orbits.classes:
        orbit = canon.orbit(cls.rep)
        assert members[id(cls)] == orbit, cls.key
        assert cls.size == len(orbit)
        assert cls.key == min(canon.form_str(g) for g in orbit)
    assert sum(len(m) for m in members.values()) == len(aeset.entries)
    return len(orbits)
