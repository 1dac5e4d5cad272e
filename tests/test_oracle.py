import gc
import hashlib
import io
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

import prop_suites
from arithex import canon, oracle, reference, solver
from arithex.exprtree import parse, pretty, to_canon
from arithex.mpoly import MultiPoly, PolyTable
from arithex.oracle import (
    AESet,
    LimitExceeded,
    OrbitClass,
    _check_class_operations,
    _check_invariance,
    _check_type2_pairing,
    _type_rule,
    category_table,
    compute_orbits,
    dump_lines,
    generate,
    verify,
)
from arithex.projrat import INF

FRAGMENTS = ["".join(c) for r in range(1, 5) for c in combinations("+-*/", r)]
# every fragment where - comes with + and / with *
CLASSIFIABLE = ["+", "*", "+-", "+*", "*/", "+-*", "+*/", "+-*/"]

# the ending rules, copied: operand ending operators that let a combination
# inherit the operator; - also needs a first-type right operand
END_RULES = {"+": ("+", "*", "/"), "-": ("+", "*", "/"), "*": ("-", "+", "*"), "/": ("+", "-", "*")}


@pytest.fixture(scope="module")
def family4():
    return generate(4)


@pytest.fixture(scope="module")
def family5():
    return generate(5)


@pytest.fixture(scope="module")
def reference5():
    """The reference loop's sets for n = 5 and all four operators."""
    return _reference_generate(5, "+-*/")


@pytest.fixture(scope="module")
def decomps4():
    """Every decomposition of every form on a subset of {1..4}, from the
    reference loop: form -> [(op, left, right), ...] in generation order."""
    return {f: decomps for _, forms in _reference_generate(4, "+-*/") for f, _, decomps in forms}


def form(text):
    return to_canon(parse(text))


def search_type(f, entries):
    """The type of a stored form by an isomorphism search, which shares no
    theory with the build's classes: 1 if its negation is not stored, 3 if
    a relabeling maps the form onto its negation, else 2."""
    neg = canon.negate(f)
    if neg not in entries:
        return 1
    found = canon.is_isomorphic(canon.relabel_contiguous(f), canon.relabel_contiguous(neg))
    return 3 if found is not None else 2


def endop_of(family, text):
    f = form(text)
    return family.entry_of(f).cls.endop


def type_of(family, text):
    f = form(text)
    return family.entry_of(f).cls.typeclass


def test_identity_counts_small(family4):
    assert len(family4.full_set(1).entries) == 1
    assert len(family4.full_set(2).entries) == 6
    assert len(family4.full_set(3).entries) == 68
    assert len(family4.full_set(4).entries) == 1170


def test_two_variable_universe(family4):
    entries = family4.full_set(2).entries
    expected = {form(t) for t in ("x1+x2", "x1-x2", "x2-x1", "x1*x2", "x1/x2", "x2/x1")}
    assert set(entries) == expected


def test_three_variable_listing(family4):
    entries = family4.full_set(3).entries
    expected = {form(t) for t in reference.THREE_VAR_EXPRESSIONS}
    assert len(expected) == 68
    assert set(entries) == expected


def test_orbits_small(family4):
    assert len(compute_orbits(family4.full_set(1), 1)) == 1
    assert len(compute_orbits(family4.full_set(2), 2)) == 4
    orbits3 = compute_orbits(family4.full_set(3), 3)
    assert len(orbits3) == 18
    assert len(compute_orbits(family4.full_set(4), 4)) == 93
    expected_keys = {canon.orbit_key(form(t)) for t in reference.THREE_VAR_CLASSES}
    assert {c.key for c in orbits3.classes} == expected_keys


def test_orbit_sizes_sum(family4):
    for k in (2, 3, 4):
        orbits = compute_orbits(family4.full_set(k), k)
        assert sum(c.size for c in orbits.classes) == len(family4.full_set(k).entries)


def test_orbit_classes_match_orbit_keys(family4):
    for k in range(1, 5):
        aeset = family4.full_set(k)
        orbits = compute_orbits(aeset, k)
        class_of = {c.rep: c for c in orbits.classes}
        for f in aeset.entries:
            cls = class_of[orbits.find(f)]
            assert cls.key == canon.orbit_key(f)
            assert len(canon.orbit(f)) == cls.size


def test_recorded_decompositions_recombine_to_their_form(family4):
    # the build takes every product through its one table; a one-off
    # combine through a fresh table must give the same form
    for aeset in family4.sets.values():
        for form, entry in aeset.entries.items():
            if entry.op is None:
                assert len(form.varset) == 1
                continue
            res = canon.combine(entry.op, entry.left, entry.right)
            assert res == form and res.varset == form.varset


def _cross_multiplied(op, f, g):
    """f op g by the cross-multiplication rules, through MultiPoly's own
    +, - and mul_disjoint and no table."""
    f1, f2, g1, g2 = f.num, f.den, g.num, g.den
    num, den = {
        "+": (f1.mul_disjoint(g2) + f2.mul_disjoint(g1), f2.mul_disjoint(g2)),
        "-": (f1.mul_disjoint(g2) - f2.mul_disjoint(g1), f2.mul_disjoint(g2)),
        "*": (f1.mul_disjoint(g1), f2.mul_disjoint(g2)),
        "/": (f1.mul_disjoint(g2), f2.mul_disjoint(g1)),
    }[op]
    return canon._normalized(num, den)


@pytest.mark.parametrize("ops", FRAGMENTS)
def test_combine_pair_matches_combine(family4, ops):
    # random left forms against random right forms on disjoint subsets;
    # each pair's results come in + - * / order, whether ops is given as
    # generate gives it or reversed, each - and / result followed by its
    # reversed one
    rng = random.Random(ops)
    subsets = [s for s in family4.sets if len(s) < 4]
    table = PolyTable()
    for i in range(40):
        left = rng.choice(subsets)
        right = rng.choice([s for s in subsets if not s & left])
        f = rng.choice(list(family4.sets[left].entries))
        pool = list(family4.sets[right].entries)
        gs = rng.sample(pool, min(3, len(pool)))
        order = tuple(ops) if i % 2 else tuple(reversed(ops))
        combine_pair = canon.pair_combiner(order, table)
        for g in gs:
            polys = combine_pair(f, g)
            expected = [(op, a, b) for op in ops for a, b in ((f, g), (g, f))[:1 + (op in "-/")]]
            assert len(polys) == 2 * len(expected)
            for num, den, (op, a, b) in zip(polys[::2], polys[1::2], expected):
                res = canon.combine(op, a, b)
                assert canon.CanonForm(num, den, left | right) == res == _cross_multiplied(op, a, b)
                assert res.varset == left | right


def test_combine_pair_rejects_what_combine_rejects():
    # the per-pair function takes its operands' variable sets as disjoint,
    # as the build gives them; combine checks them
    assert len(canon.pair_combiner(("+", "*"))(canon.atom(1), canon.atom(2))) == 4
    with pytest.raises(canon.OverlappingVariables):
        canon.combine("+", canon.atom(1), canon.atom(1))
    with pytest.raises(ValueError, match="unknown operator '\\^'"):
        canon.combine("^", canon.atom(1), canon.atom(2))


@pytest.mark.parametrize("ops", CLASSIFIABLE)
def test_reversed_results_match_reversed_combine(family4, ops):
    # every operand pair the n = 4 build combines: after f - g and f / g
    # comes g - f and g / f, as combine gives them
    combine_pair = canon.pair_combiner(tuple(ops), PolyTable())
    slots = [op for op in ops for _ in range(1 + (op in "-/"))]
    for size in range(2, 5):
        for subset in combinations(range(1, 5), size):
            fs = frozenset(subset)
            first, rest = subset[0], subset[1:]
            for mask in range(2 ** len(rest) - 1):
                left = frozenset((first, *(v for i, v in enumerate(rest) if mask >> i & 1)))
                gs = list(family4.sets[fs - left].entries)
                for f in family4.sets[left].entries:
                    for g in gs:
                        polys = combine_pair(f, g)
                        results = [canon.CanonForm(num, den, fs)
                                   for num, den in zip(polys[::2], polys[1::2])]
                        by_op = {op: [] for op in ops}
                        for op, res in zip(slots, results, strict=True):
                            by_op[op].append(res)
                        for op in set(ops) & set("-/"):
                            assert by_op[op] == [canon.combine(op, f, g), canon.combine(op, g, f)]


def test_each_product_is_computed_once_per_build(monkeypatch):
    # the table keeps a row of products per left polynomial: no operand
    # pair of polynomials is multiplied twice in one build
    calls = []
    mul = MultiPoly.mul_disjoint

    def counted(a, b):
        calls.append((a.terms, b.terms))
        return mul(a, b)

    monkeypatch.setattr(MultiPoly, "mul_disjoint", counted)
    for n, ops in ((5, "+-*/"), (4, "+*"), (4, "-/")):
        calls.clear()
        generate(n, ops)
        assert calls and len(calls) == len(set(calls)), (n, ops)


def test_equal_forms_hash_alike_however_built(family4):
    # stored forms hold the build table's polynomials, relabeled images
    # fresh ones: an image must find the stored form equal to it
    stored = {f: f for f in family4.full_set(4).entries}
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    for f in stored:
        g = canon.apply_perm(perm, f)
        assert g in stored
        h = stored[g]
        assert g.num is not h.num and g == h and hash(g) == hash(h)


def test_stored_forms_share_polynomials(family5):
    # only / flips a sign (when its divisor's numerator is not monic), and
    # - stores the negation of F2*G1, so which negations are stored depends
    # on the operator fragment
    for family in (family5, *(generate(4, ops) for ops in FRAGMENTS)):
        polys = [
            p
            for aeset in family.sets.values()
            for form in aeset.entries
            for p in (form.num, form.den)
        ]
        assert len({id(p) for p in polys}) == len(set(polys)), family.ops


def test_stored_polynomials_share_their_terms(family5):
    # the build's table keeps one copy of each (monomial, coefficient)
    # pair, and every stored polynomial holds that copy
    terms = {}
    for aeset in family5.sets.values():
        for form in aeset.entries:
            for p in (form.num, form.den):
                for term in p.terms:
                    assert terms.setdefault(term, term) is term, (form, term)
    # the coefficients are +-1, on the 2^5 monomials of {1..5}
    assert len(terms) <= 2 * 2**5


def test_stored_forms_have_unit_coefficients_and_no_shared_monomial(family5):
    assert prop_suites.check_unit_forms(family5) == 33737
    for ops in FRAGMENTS:
        assert prop_suites.check_unit_forms(generate(4, ops)) > 0


def _reference_generate(n, ops):
    """The generation loop with every result through canon.combine: each
    op on each operand pair, and both operand orders for - and /.  Returns
    per subset its entries as (form, varset, decomps), in order."""
    table = PolyTable()
    sets = {}
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            fs = frozenset(subset)
            if size == 1:
                a = canon.atom(subset[0], table)
                sets[fs] = (subset, {a: []})
                continue
            entries = {}
            first, rest = subset[0], subset[1:]
            for mask in range(2 ** len(rest) - 1):
                left = frozenset((first, *(v for i, v in enumerate(rest) if mask >> i & 1)))
                for e1 in sets[left][1]:
                    for e2 in sets[fs - left][1]:
                        for op in "+-*/":
                            if op not in ops:
                                continue
                            orders = ((e1, e2),) if op in "+*" else ((e1, e2), (e2, e1))
                            for fa, fb in orders:
                                res = canon.combine(op, fa, fb, varset=fs, table=table)
                                entries.setdefault(res, []).append((op, fa, fb))
            sets[fs] = (subset, entries)
    return [
        (subset, [(f, f.varset, decomps) for f, decomps in entries.items()])
        for subset, entries in sets.values()
    ]


def _generated(family):
    return [
        (aeset.subset, [(f, f.varset, None if e.op is None else (e.op, e.left, e.right))
                        for f, e in aeset.entries.items()])
        for aeset in family.sets.values()
    ]


def _first_decomps(reference):
    """The reference sets with each entry's decompositions cut to the
    first, None for an atom."""
    return [
        (subset, [(f, varset, decomps[0] if decomps else None) for f, varset, decomps in forms])
        for subset, forms in reference
    ]


@pytest.mark.parametrize("ops", FRAGMENTS)
def test_generate_matches_reference_loop(ops):
    # swapped - and / results are derived, not combined: subsets, entries
    # and their order must not change, and each entry keeps the first
    # decomposition of the reference loop
    assert _generated(generate(4, ops)) == _first_decomps(_reference_generate(4, ops))


def test_generate_matches_reference_loop_n5(family5, reference5):
    assert _generated(family5) == _first_decomps(reference5)
    polys = [p for aeset in family5.sets.values() for f in aeset.entries for p in (f.num, f.den)]
    assert len(set(polys)) == len({id(p) for p in polys}) == 5843


def _scan_endops(reference, rules):
    """Ending operator of every reference form by a scan over all its
    decompositions, operands first, or the text of the first form where
    not exactly one rule fires."""
    endops, sets = {}, {}
    for subset, forms in reference:
        sets[frozenset(subset)] = {f for f, _, _ in forms}
        for f, _, decomps in forms:
            if not decomps:
                endops[f] = "*"
                continue
            fired = {
                op
                for op, fa, fb in decomps
                if endops[fa] in rules[op]
                and endops[fb] in rules[op]
                and (op != "-" or canon.negate(fb) not in sets[fb.varset])
            }
            if not fired:
                return f"no ending rule fired for {f!r}"
            if len(fired) > 1:
                return f"rules {sorted(fired)} all fired for {f!r}"
            endops[f] = fired.pop()
    return endops


def _built_endops(ops):
    try:
        family = generate(4, ops)
    except (oracle.ClassificationEmpty, oracle.ClassificationAmbiguous) as exc:
        return str(exc)
    return _endops(family)


def _endops(family):
    return {f: e.cls.endop for aeset in family.sets.values() for f, e in aeset.entries.items()}


@pytest.mark.parametrize("ops", CLASSIFIABLE)
def test_endops_match_reference_rule_scan(ops, monkeypatch):
    # the rules fire once per triple, on its operand classes, yet every
    # entry gets the ending operator of a scan over all the decompositions
    # it has; with a rule emptied or widened to every operator, the build
    # fails on the form where the scan does, with its text
    reference = _reference_generate(4, ops)
    assert _built_endops(ops) == _scan_endops(reference, END_RULES)
    for op in ops:
        for rule in ((), canon.OPS):
            with monkeypatch.context() as m:
                m.setitem(oracle._END_RULES, op, rule)
                expected = _scan_endops(reference, {**END_RULES, op: rule})
                assert _built_endops(ops) == expected, (op, rule)


def test_endops_match_reference_rule_scan_n5(family5, reference5):
    # each class fires the rules once per triple, yet at n = 5 every form's
    # ending operator is still that of a scan over all its decompositions
    assert _endops(family5) == _scan_endops(reference5, END_RULES)


@pytest.mark.parametrize("ops", [ops for ops in FRAGMENTS if ops not in CLASSIFIABLE])
def test_unclassifiable_fragments_leave_endop_unset(ops):
    with pytest.raises(oracle.UnsupportedOps):
        oracle.check_classifiable(ops)
    with pytest.raises(oracle.UnsupportedOps):
        oracle.summarize(4, ops)
    family = generate(4, ops)
    assert all(
        entry.cls.endop is None for aeset in family.sets.values() for entry in aeset.entries.values()
    )


def test_generate_memory_bound():
    # tracemalloc peak of the n = 5 build: 35.8 MB when every form held its
    # own polynomials, 18.5 MB with one polynomial table per build (Python
    # 3.10-3.12); 24 MB leaves room for interpreter differences and fails
    # if the sharing is lost
    tracemalloc.start()
    try:
        generate(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000


def test_generate_retained_memory_bound():
    # tracemalloc heap that the n = 5 family holds once generate returns:
    # 11.97 MB with a decomposition tuple per entry (1.6 MB of it) and a
    # copy of each term per stored polynomial (1.1 MB), 9.28 MB with
    # neither (Python 3.10-3.12); 10.7 MB is 1.15 times that
    tracemalloc.start()
    try:
        family = generate(5)  # alive while the heap is read
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 10_700_000


@pytest.mark.parametrize(
    "ops, n", [("+-*/", 5)] + [(ops, 4) for ops in FRAGMENTS if ops != "+-*/"]
)
def test_classes_are_orbits(ops, n, request):
    # the build's class ids group every level into exactly the orbits of
    # the reps, whatever the fragment
    fam = request.getfixturevalue("family5") if n == 5 else generate(n, ops=ops)
    counts = [prop_suites.check_classes_are_orbits(fam.full_set(k), k) for k in range(1, n + 1)]
    if ops == "+-*/":
        assert counts == [1, 4, 18, 93, 500]


@pytest.mark.parametrize("ops, n", [("+-*/", 5)] + [(ops, 4) for ops in FRAGMENTS])
def test_classes_reach_equal_or_disjoint_triples(ops, n):
    # the lemma behind the build's classes: over every decomposition of
    # every form, the forms of one class reach one set of triples (op,
    # class of L, class of R), unordered for + and *, and forms of
    # different classes disjoint sets; a fresh build, since keying a class
    # moves its rep to the member realizing its key
    fam = generate(n, ops=ops)

    def cls(f):
        return fam.entry_of(f).cls

    reached = {}  # id of a class -> the triple set of its first member
    owner = {}  # triple -> id of the class whose forms reach it
    for _, forms in _reference_generate(n, ops):
        for f, _, decomps in forms:
            if not decomps:
                continue
            triples = set()
            for op, a, b in decomps:
                pair = (id(cls(a)), id(cls(b)))
                triples.add((op, *(sorted(pair) if op in "+*" else pair)))
            c = id(cls(f))
            assert reached.setdefault(c, triples) == triples, f"{f!r} reaches other triples"
            for triple in triples:
                assert owner.setdefault(triple, c) == c, f"{f!r} shares {triple}"
    assert len(reached) == sum(len(fam.classes[k]) for k in range(2, n + 1))
    # each size's classes are the grouping of {1..k}: in order of first
    # member, that member the rep, the group's length the size
    for k in range(1, n + 1):
        groups: dict = {}
        for entry in fam.full_set(k).entries:
            groups.setdefault(id(entry.cls), []).append(entry)
        assert [id(c) for c in fam.classes[k]] == list(groups)
        for c, group in zip(fam.classes[k], groups.values()):
            assert type(c.rep) is canon.CanonForm and c.rep == group[0] and c.size == len(group)


def test_compute_orbits_requires_closure_of_twin_classes():
    # (x1+x2)*(x3+x4) is fixed by swapping x1, x2 and by swapping x3, x4;
    # dropping the last stored of its three members leaves its class short of the size the build counted
    aeset = generate(4).full_set(4)
    f = form("(x1+x2)*(x3+x4)")
    members = canon.orbit(f)
    assert len(members) == 3
    dropped = [g for g in aeset.entries if g in members][-1]
    entries = {g: e for g, e in aeset.entries.items() if g != dropped}
    with pytest.raises(RuntimeError, match="not closed under relabeling"):
        compute_orbits(AESet(aeset.subset, entries), 4)


def test_compute_orbits_requires_closure(family4):
    aeset = family4.full_set(3)
    reps = {c.rep for c in compute_orbits(aeset, 3).classes}
    dropped = next(f for f in aeset.entries if f not in reps)
    entries = {f: e for f, e in aeset.entries.items() if f != dropped}
    with pytest.raises(RuntimeError, match="not closed under relabeling"):
        compute_orbits(AESet(aeset.subset, entries), 3)


def test_class_key_requires_closure():
    # Family.class_key checks closure as compute_orbits does; the reps come
    # from a separate family, since compute_orbits keys the family it runs on
    fam = generate(3)
    aeset = fam.full_set(3)
    reps = {c.rep for c in compute_orbits(generate(3).full_set(3), 3).classes}
    dropped = next(f for f in aeset.entries if f not in reps)
    rep = next(r for r in reps if dropped in canon.orbit(r))
    del aeset.entries[dropped]
    with pytest.raises(RuntimeError, match="not closed under relabeling"):
        fam.class_key(rep)


def test_invariance_check_detects_a_member_of_another_type():
    # f and -f share a type-3 class; pointing -f at another class with its
    # ending operator keeps -f's ending operator, but f, typed by itself,
    # becomes type 2
    fam = generate(4)
    aeset = fam.full_set(4)
    orbits = compute_orbits(aeset, 4)
    assert _check_invariance(orbits)
    entries = aeset.entries
    f = next(f for f, e in entries.items() if e.cls.typeclass == 3 and f != e.cls.rep)
    cls, neg = entries[f].cls, entries[canon.negate(f)]
    neg.cls = next(c for c in orbits.classes
                   if c is not cls and c.endop == neg.cls.endop)
    assert neg.cls is not cls and neg.cls.endop == cls.endop
    assert _type_rule(neg, cls) == 2 and cls.typeclass == 3
    assert not _check_invariance(orbits)


def test_type2_pairing_check_detects_a_self_paired_class():
    fam = generate(4)
    orbits = compute_orbits(fam.full_set(4), 4)
    assert _check_type2_pairing(orbits)
    cls = next(c for c in orbits.classes if c.typeclass == 2)
    orbits.entries[canon.negate(cls.rep)].cls = cls
    assert not _check_type2_pairing(orbits)


def test_class_operation_check_detects_split_classes():
    fam = generate(4)
    for k in range(1, 5):
        compute_orbits(fam.full_set(k), k)
    assert _check_class_operations(fam, random.Random(0))
    for f, entry in fam.full_set(4).entries.items():
        entry.cls = OrbitClass(key=canon.form_str(f), rep=f, size=1)
    assert not _check_class_operations(fam, random.Random(0))


def test_series_parallel_fragment():
    fam = generate(5, ops="+*")
    counts = [len(compute_orbits(fam.full_set(k), k)) for k in range(1, 6)]
    assert counts == [1, 2, 4, 10, 24]
    orbits4 = compute_orbits(fam.full_set(4), 4)
    expected = {
        canon.orbit_key(form(t)) for t in reference.SERIES_PARALLEL_FOUR_VAR_CLASSES
    }
    assert {c.key for c in orbits4.classes} == expected


def test_generate_guard():
    for n in (0, 7, 8):
        with pytest.raises(LimitExceeded):
            generate(n)
    with pytest.raises(LimitExceeded):
        verify(7)
    with pytest.raises(ValueError):
        generate(3, ops="")


def test_closure_under_allowed_ops(family4):
    # recombining entries on disjoint subsets lands in the generated set
    left = family4.sets[frozenset({1, 3})].entries
    right = family4.sets[frozenset({2, 4})].entries
    target = family4.full_set(4).entries
    for f in left:
        for g in right:
            for op in "+-*/":
                assert canon.combine(op, f, g) in target


def test_endop_base_cases(family4):
    assert endop_of(family4, "x1*x2") == "*"
    assert endop_of(family4, "x1+x2") == "+"
    assert endop_of(family4, "x1-x2") == "-"
    assert endop_of(family4, "x1/x2") == "/"
    assert family4.entry_of(canon.atom(3)).cls.endop == "*"


def test_endop_examples_four_vars(family4):
    assert endop_of(family4, "x1*(x2/x3-x4)") == "*"
    assert endop_of(family4, "(x2/x3)*(x1-x4)") == "/"


def test_endop_examples_five_vars(family5):
    assert endop_of(family5, "(x1-x2)/x3-x4-x5") == "-"
    assert endop_of(family5, "x4+x5-(x1-x2)/x3") == "+"


def test_every_entry_has_unique_endop(family4):
    # generate's close step would have raised otherwise
    for aeset in family4.sets.values():
        for entry in aeset.entries.values():
            assert entry.cls.endop in "+-*/"


def test_classify_type_examples(family4):
    assert type_of(family4, "x1+x2*x3") == 1
    assert type_of(family4, "x1-x2*x3") == 2
    assert type_of(family4, "x1*(x2-x3)") == 3
    assert type_of(family4, "x1-x2") == 3


def test_classify_type_self_negative_five_vars(family5):
    assert type_of(family5, "x1+x2*(x3-x4)-x5") == 3


def test_category_table_oracle_small(family4):
    for k in (1, 2, 3, 4):
        aeset = family4.full_set(k)
        orbits = compute_orbits(aeset, k)
        cells = category_table(orbits)
        for op in "+-*/":
            for t in (1, 2, 3):
                assert cells[op][t] == reference.CATEGORY_TABLES[k][op][t], (k, op, t)


def test_types_agree_between_pipeline_and_search():
    # a build types every class as it completes its size, with no keying:
    # each class's type is the search's for one member on {1..k}, and at
    # k <= 3 the rule and the search agree with it on every member
    for family in [generate(5)] + [generate(4, ops) for ops in CLASSIFIABLE]:
        for k in range(1, family.n + 1):
            entries = family.full_set(k).entries
            first = {}
            for form_, entry in entries.items():
                first.setdefault(id(entry.cls), form_)
            for form_ in first.values():
                assert entries[form_].cls.typeclass == search_type(form_, entries), form_
            if k <= 3:
                for form_, entry in entries.items():
                    t = search_type(form_, entries)
                    assert entry.cls.typeclass == _type_rule(
                        entries.get(canon.negate(form_)), entry.cls) == t, form_
        assert all(entry.cls.typeclass in (1, 2, 3)
                   for aeset in family.sets.values() for entry in aeset.entries.values())


def test_sum_decomposition_flattening(family4, decomps4):
    # +-ending classes split into a decomposition-path-independent multiset
    # of summand classes, each ending * or /
    def summand_keys(f):
        options = set()
        for op, a, b in decomps4[f]:
            if op != "+":
                continue
            parts = []
            for side in (a, b):
                side_end = family4.entry_of(side).cls.endop
                if side_end == "+":
                    parts.extend(summand_keys(side))
                else:
                    assert side_end in "*/", f"{side!r} inside a sum ends {side_end}"
                    rel = canon.relabel_contiguous(side)
                    parts.append(canon.orbit_key(rel))
            options.add(tuple(sorted(parts)))
        assert options, f"{f!r} ends + but has no + decomposition"
        assert len(options) == 1, f"ambiguous sum decomposition for {f!r}"
        return next(iter(options))

    for k in (3, 4):
        aeset = family4.full_set(k)
        for form_, entry in aeset.entries.items():
            if entry.cls.endop == "+":
                assert len(summand_keys(form_)) >= 2


def test_product_type_characterization(family4, decomps4):
    # Flatten a *-ending expression into its maximal factor multiset, each
    # factor sign-normalized to its monic version.  The type then reads off
    # the factor types: all first <=> first (the residual sign is forced to
    # +1 in that case), some third <=> third, else second.  Note the type
    # cannot depend on the residual sign alone: f and -f always share a type.
    def factors(f):
        for op, a, b in decomps4[f]:
            if op == "*":
                out = []
                for side in (a, b):
                    if family4.entry_of(side).cls.endop == "*" and len(side.varset) > 1:
                        out.extend(factors(side))
                    else:
                        out.append(side)
                return out
        return [f]

    aeset = family4.full_set(4)
    compute_orbits(aeset, 4)
    for form_, entry in aeset.entries.items():
        if entry.cls.endop != "*" or len(form_.varset) == 1:
            continue
        fs = factors(form_)
        assert len(fs) >= 2
        sign = 1 if canon.is_monic_form(form_) else -1
        monicized_types = []
        for g in fs:
            g_m = g if canon.is_monic_form(g) else canon.negate(g)
            sub_entries = family4.sets[g_m.varset].entries
            monicized_types.append(search_type(g_m, sub_entries))
        if entry.cls.typeclass == 1:
            assert sign == 1 and all(t == 1 for t in monicized_types), form_
        assert (entry.cls.typeclass == 3) == any(t == 3 for t in monicized_types), form_
        assert (entry.cls.typeclass == 1) == (sign == 1 and all(t == 1 for t in monicized_types)), form_


def test_quotient_type_characterization(family4, decomps4):
    # /-ending: third type iff monic and numerator or denominator class is
    # third type (over +,-,* pools)
    aeset = family4.full_set(4)
    compute_orbits(aeset, 4)
    checked = 0
    for form_, entry in aeset.entries.items():
        if entry.cls.endop != "/":
            continue
        canonical_splits = [
            (a, b)
            for op, a, b in decomps4[form_]
            if op == "/"
            and family4.entry_of(a).cls.endop in "+-*"
            and family4.entry_of(b).cls.endop in "+-*"
        ]
        assert canonical_splits, form_
        seen = set()
        for a, b in canonical_splits:
            sign = 1
            if not canon.is_monic_form(a):
                a, sign = canon.negate(a), -sign
            if not canon.is_monic_form(b):
                b, sign = canon.negate(b), -sign
            seen.add((sign, a, b))
        assert len(seen) == 1, form_
        sign, g, h = next(iter(seen))
        tg = search_type(g, family4.sets[g.varset].entries)
        th = search_type(h, family4.sets[h.varset].entries)
        assert (entry.cls.typeclass == 3) == (tg == 3 or th == 3), form_
        assert (entry.cls.typeclass == 1) == (sign == 1 and tg == 1 and th == 1), form_
        checked += 1
    assert checked > 0


def test_dump_lines(family4):
    aeset = family4.full_set(3)
    orbits = compute_orbits(aeset, 3)
    lines = list(dump_lines(family4, orbits))
    assert len(lines) == 18
    for rec in lines:
        assert rec["n"] == 3
        assert rec["endop"] in "+-*/"
        assert rec["type"] in (1, 2, 3)
        assert to_canon(parse(rec["witness"])) in aeset.entries
    assert sum(rec["orbit_size"] for rec in lines) == 68


def test_classes_are_keyed_only_where_a_key_is_read(monkeypatch):
    # summarize keys the level only for its dump, with the same counts and
    # table; verify keys only the level its class listing compares
    keyed = []
    record_class = oracle._record_class

    def counted(members):
        keyed.append(len(members[0].varset))
        return record_class(members)

    monkeypatch.setattr(oracle, "_record_class", counted)
    plain = oracle.summarize(5)
    assert keyed == []
    dump = io.StringIO()
    assert oracle.summarize(5, dump=dump) == plain
    assert len(keyed) == plain[2] == len(dump.getvalue().splitlines()) == 500
    keyed.clear()
    assert verify(5).ok
    assert keyed == [3] * 18
    keyed.clear()
    assert verify(4, "+*").ok
    assert keyed == [4] * len(reference.SERIES_PARALLEL_FOUR_VAR_CLASSES)


# per classifiable fragment other than +-*/ (whose dump is the golden
# oracle5_dump.jsonl): SHA-256 of summarize's n = 5 dump and of its
# returned counts and table as JSON
SUMMARIZE5_DIGESTS = {
    "+": ("3198eabac38bea2e77846424ee409354512aad317762930c73827ca14ded2216",
          "a778c1f82727939451737069753c366d051439f0eecb10661350fa80244c0bbb"),
    "*": ("c34515c9c695b712e6e4fc6b5d93f7582a27a6b0984f35d516b947d113987671",
          "15cb3090bef67f753052aa370a7c5b0dee0a03fc7debc85a3119f4bebf06f393"),
    "+-": ("58090f2e04543ff95fc44773b38f7c9cb1041c554b7194d446259627fb32c5ee",
           "456625bf49ee1e90dbe49093f306fc45ca68f8e6b757848f1b236cd037320ae9"),
    "+*": ("14266def623740e657ca34a3af5136d980102a0b74380aa3d8ce40dc3794854e",
           "cd6bd267d4f98f7eba784eb808a6c6227cf6066c806318f40e205bf6ad934f77"),
    "*/": ("e737e5e2eb2e3344753df00e5911dc002d3590325d53f29b4792531d9db8e166",
           "e1125c392e51d39128bf27303ae420a26aec5f2110a46bba28f69baaaa9d755c"),
    "+-*": ("2d1c08aa5a8dc56d19f0065625a87ad2a0d30aed71d76f6a8194c0a49f95b03e",
            "7bcf0dcc971f028a198276b4db1621c648e4629df79d93c6debfcf5b17f780a9"),
    "+*/": ("7911569253ba8c40ff6facfa26c766eac93c1f9f561dd6b58d1f882e4af80917",
            "3d16337f92002191c72f0781125add4b63ddcb7b225d902869499a45f1198c2d"),
}


@pytest.mark.parametrize("ops", sorted(SUMMARIZE5_DIGESTS, key=CLASSIFIABLE.index))
def test_summarize5_digests(ops):
    # every class key, witness, ending operator, type and orbit size of the
    # fragment's n = 5 level, and its counts and category table
    dump = io.StringIO()
    summary = oracle.summarize(5, ops, dump)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (dump.getvalue(), json.dumps(summary)))
    assert digests == SUMMARIZE5_DIGESTS[ops]


def test_unkeyed_classification_requires_closure(monkeypatch):
    # the build keeps each size's classes, keying none, each with a member
    # as its rep, and checks every set's closure as it completes the size
    family = generate(4)
    entries = family.full_set(4).entries
    assert len(family.classes[4]) == 93
    assert all(c.key is None and entries[c.rep].cls is c for c in family.classes[4])
    # a combiner that gives the pair (x2, x3) x2 + x3 in its x2 - x3 slot
    # leaves {2, 3} one member short of the class of x1 - x2 and x2 - x1
    real = canon.pair_combiner

    def damaged(ops, table=None):
        combine_pair = real(ops, table)

        def combine(f, g):
            polys = combine_pair(f, g)
            if f.varset == {2} and g.varset == {3}:
                polys = polys[:2] + polys[:2] + polys[4:]
            return polys
        return combine

    monkeypatch.setattr(canon, "pair_combiner", damaged)
    with pytest.raises(RuntimeError, match="not closed under relabeling"):
        generate(3)


def test_witness_reconstruction(family4):
    for k in (2, 3):
        aeset = family4.full_set(k)
        for form_ in aeset.entries:
            tree = family4.witness(form_)
            assert to_canon(tree) == form_
            assert to_canon(parse(pretty(tree))) == form_


def test_verify_small_all_ops():
    report = verify(4, seed=11)
    assert report.ok, "\n".join(c.line() for c in report.checks if not c.ok)
    names = {c.name for c in report.checks}
    assert "identity-count" in names
    assert "category-table-vs-engine" in names
    assert "three-var-identity-listing" in names


@pytest.mark.parametrize("enabled", [True, False])
def test_verify_and_summarize_leave_the_collector_to_the_caller(enabled, monkeypatch):
    # the library changes no process-wide state: the build runs with the
    # collector as the caller set it (the CLI holds it off)
    seen = []
    build = oracle.generate

    def generate(*args, **kwargs):
        seen.append(gc.isenabled())
        return build(*args, **kwargs)

    monkeypatch.setattr(oracle, "generate", generate)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert verify(2).ok
        assert oracle.summarize(2)[1] == 6
        with pytest.raises(LimitExceeded):
            verify(7)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (seen, after) == ([enabled] * 3, enabled)


@pytest.mark.parametrize("ops", CLASSIFIABLE)
def test_stored_forms_are_their_records(ops):
    # each stored form is its own record, and its operands are the stored
    # records of their sets
    family = generate(4, ops)
    for aeset in family.sets.values():
        for e in aeset.entries:
            assert aeset.entries[e] is e
            if e.op is None:
                assert e.left is None and e.right is None
                continue
            for side in (e.left, e.right):
                assert family.sets[side.varset].entries[side] is side
            assert canon.combine(e.op, e.left, e.right) == e


def test_build_leaves_no_cyclic_garbage():
    # the CLI runs every command with the collector off, so a build, its
    # polynomial table and the table's negations, and what solving on a
    # family adds to it, must be freed by reference counting alone
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for ops in ("+-*/", "+-", "*/"):
            family = generate(4, ops)
            del family
            assert gc.collect() == 0, ops
        oracle.summarize(4)
        assert gc.collect() == 0
        # keying sets each class's rep, which must not be a record: a record
        # points at its class
        oracle.summarize(4, dump=io.StringIO())
        assert gc.collect() == 0
        assert verify(4).ok
        assert gc.collect() == 0
        family = generate(5)
        for numbers, target in (([1, 2, 3, 4, 5], 24), ([0, 1, 3, 10, 8], INF),
                                (["1/2", -3, 4, 7, 2], Fraction(-3, 2))):
            query = solver.make_query(numbers, target, want_all=True)
            assert solver.solve(query, family)
            assert gc.collect() == 0, numbers
        del family, query
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()


def test_verify_series_parallel():
    report = verify(5, ops="+*", seed=3)
    assert report.ok, "\n".join(c.line() for c in report.checks if not c.ok)
    sp = [c for c in report.checks if c.name == "orbit-count-series-parallel"]
    assert [c.n for c in sp] == [1, 2, 3, 4, 5]
