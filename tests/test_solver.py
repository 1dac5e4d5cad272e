import random
from fractions import Fraction
from itertools import permutations

import pytest

import prop_suites
from arithex import canon, oracle
from arithex.exprtree import Node, Var, eval_tree, parse, pretty, to_canon
from arithex.projrat import INF, UNDEFINED
from arithex.solver import (
    TooManyNumbers,
    _point_key,
    _Program,
    class_uniqueness,
    make_query,
    solve,
)

F = Fraction


@pytest.fixture(scope="module")
def family4():
    return oracle.generate(4)


def test_query_validation():
    with pytest.raises(TooManyNumbers):
        make_query([1, 2, 3, 4, 5, 6, 7], 10)
    with pytest.raises(TooManyNumbers):
        make_query([], 10)


def test_single_number():
    sols = solve(make_query([5], 5))
    assert len(sols) == 1
    assert sols[0].witness == Var(1)
    assert class_uniqueness(sols) == 1


def test_no_solution_two_numbers():
    # the six two-variable expressions at (2,3) give 5, -1, 1, 6, 2/3, 3/2
    sols = solve(make_query([2, 3], 7))
    assert sols == []
    assert class_uniqueness(sols) == 0
    for target in (5, -1, 1, 6, F(2, 3), F(3, 2)):
        assert solve(make_query([2, 3], target))


def test_puzzle_21(family4):
    query = make_query([1, 5, 6, 7], 21, want_all=True)
    sols = solve(query, family4)
    assert sols
    assert class_uniqueness(sols) == 1
    reference_form = to_canon(parse("x1/(x2-x3/x4)"))
    expected_key = canon.orbit_key(reference_form)
    point = {i + 1: F(v) for i, v in enumerate([1, 5, 6, 7])}
    for sol in sols:
        assert sol.class_key == expected_key
        assert canon.eval_form(to_canon(sol.witness), point) == 21
        assert eval_tree(sol.witness, point) == 21
        assert not sol.extension


def test_puzzle_21_single_witness(family4):
    sols = solve(make_query([1, 5, 6, 7], 21), family4)
    assert len(sols) == 1


def test_solution_dict_shape(family4):
    sols = solve(make_query([1, 5, 6, 7], 21), family4)
    d = sols[0].to_dict()
    assert d["numbers"] == ["1", "5", "6", "7"]
    assert d["value"] == "21"
    assert d["extension"] is False


def test_classes_at_simple_target():
    sols = solve(make_query([1, 2, 3], 6, want_all=True))
    keys = {s.class_key for s in sols}
    # x1+x2+x3 and x1*x2*x3 both hit 6 at (1,2,3); they are different classes
    assert canon.orbit_key(to_canon(parse("x1+x2+x3"))) in keys
    assert canon.orbit_key(to_canon(parse("x1*x2*x3"))) in keys
    assert class_uniqueness(sols) == len(keys) >= 2


def test_permutation_closure(family4):
    base = solve(make_query([1, 5, 6, 7], 21, want_all=True), family4)
    base_keys = {s.class_key for s in base}
    for arrangement in ((7, 6, 5, 1), (5, 1, 7, 6)):
        sols = solve(make_query(arrangement, 21, want_all=True), family4)
        assert {s.class_key for s in sols} == base_keys


def test_duplicate_numbers(family4):
    sols = solve(make_query([2, 2], 4))
    keys = {s.class_key for s in sols}
    assert canon.orbit_key(to_canon(parse("x1+x2"))) in keys
    assert canon.orbit_key(to_canon(parse("x1*x2"))) in keys


def test_infinite_target():
    # x1/(x2-x3) at (1, 2, 2) divides by zero, which is defined here
    sols = solve(make_query([1, 2, 2], INF, want_all=True))
    assert sols
    keys = {s.class_key for s in sols}
    assert canon.orbit_key(to_canon(parse("x1/(x2-x3)"))) in keys


def test_max_solutions(family4):
    sols = solve(make_query([1, 5, 6, 7], 21, want_all=True, max_solutions=1), family4)
    assert len(sols) == 1
    assert solve(make_query([1, 5, 6, 7], 21, want_all=True, max_solutions=0), family4) == []
    with pytest.raises(ValueError):
        make_query([1, 5, 6, 7], 21, max_solutions=-1)


def test_family_guard():
    # a family on fewer variables than numbers cannot give witnesses: a
    # plain ValueError, not an input error
    with pytest.raises(ValueError) as err:
        solve(make_query([1, 2, 3], 6), oracle.generate(2))
    assert not isinstance(err.value, TooManyNumbers)


def _reference_hits(query, family):
    """(form, class key) of every hit: eval_form on every form of the level,
    orbit_key on every hit."""
    n = len(query.numbers)
    point = {i + 1: x for i, x in enumerate(query.numbers)}
    hits = []
    for form in family.full_set(n).entries:
        value = canon.eval_form(form, point)
        if value is not UNDEFINED and value == query.target:
            hits.append((form, canon.orbit_key(form)))
    return hits


def _reference_payload(query, family, hits):
    point = {i + 1: x for i, x in enumerate(query.numbers)}
    out, seen = [], set()
    for form, key in hits:
        if query.max_solutions is not None and len(out) >= query.max_solutions:
            break
        if not query.want_all and key in seen:
            continue
        seen.add(key)
        witness = family.witness(form)
        out.append({
            "expr": pretty(witness),
            "numbers": [str(x) for x in query.numbers],
            "value": str(query.target),
            "class": key,
            "extension": eval_tree(witness, point) is UNDEFINED,
        })
    return out


def _seeded_puzzles(seed, count, family):
    rng = random.Random(seed)
    pool = [F(0), F(0), F(1), F(-1), F(2), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4)]
    puzzles = []
    for i in range(count):
        n = rng.choice([1, 2, 3, 3, 4, 4, 4])
        numbers = [rng.choice(pool) for _ in range(n)]
        if i % 4 == 0 and n >= 2:  # undefined-heavy: zeros make 0/0 common
            k = rng.randint(2, n)
            numbers[:k] = [F(0)] * k
        kind = i % 3
        if kind == 0:
            target = INF
        elif kind == 1:
            target = rng.choice([F(0), F(1), F(-1), F(3, 2), F(7)])
        else:  # the value of some form, so the puzzle has hits
            point = {j + 1: x for j, x in enumerate(numbers)}
            forms = list(family.full_set(n).entries)
            target = UNDEFINED
            while target is UNDEFINED:
                target = canon.eval_form(rng.choice(forms), point)
        puzzles.append((numbers, target))
    return puzzles


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_solve_matches_reference(seed, family4):
    # family4 also serves puzzles with fewer than 4 numbers
    for numbers, target in _seeded_puzzles(seed, 16, family4):
        hits = _reference_hits(make_query(numbers, target), family4)
        for want_all in (False, True):
            for max_solutions in (0, 1, None):
                query = make_query(numbers, target, want_all=want_all, max_solutions=max_solutions)
                got = [s.to_dict() for s in solve(query, family4)]
                assert got == _reference_payload(query, family4, hits), (numbers, target)


def _payloads(query, family):
    return [s.to_dict() for s in solve(query, family)]


def test_family_state_keeps_no_puzzle_state(family4):
    # programs and class keys kept on one family give, in any order of
    # queries, what a fresh family gives for each query alone
    queries = [
        make_query(numbers, target, want_all=i % 2 == 0)
        for i, (numbers, target) in enumerate(_seeded_puzzles(21, 16, family4))
    ]
    fresh = [_payloads(q, oracle.generate(4)) for q in queries]
    shared = oracle.generate(4)
    assert [_payloads(q, shared) for q in queries] == fresh
    assert [_payloads(q, shared) for q in reversed(queries)] == fresh[::-1]
    assert any(fresh)


def test_larger_family_serves_fewer_numbers(family4):
    family5 = oracle.generate(5)
    puzzles = [p for p in _seeded_puzzles(22, 24, family4) if len(p[0]) >= 3]
    assert {len(numbers) for numbers, _ in puzzles} == {3, 4}
    for numbers, target in puzzles:
        query = make_query(numbers, target, want_all=True)
        own = oracle.generate(len(numbers))
        assert _payloads(query, family5) == _payloads(query, own), (numbers, target)
    assert set(family5._programs) == {3, 4}


def test_cached_class_keys_are_orbit_keys():
    family = oracle.generate(4)
    sols = solve(make_query([0, 1, 2, 3], INF, want_all=True), family)
    assert sols
    keyed = [
        (form, entry.cls.key)
        for aeset in family.sets.values()
        for form, entry in aeset.entries.items()
        if entry.cls.key is not None
    ]
    assert {s.class_key for s in sols} <= {key for _, key in keyed}
    for form, key in keyed:
        assert key == canon.orbit_key(form)
        # the first hit of a class keys every stored member
        assert all(family.entry_of(g).cls.key == key for g in canon.orbit(form))


def test_solved_family_shares_class_records(monkeypatch):
    # the records solve writes are the ones compute_orbits writes: after a
    # few puzzles the level classifies as a fresh family's does, and keys
    # stay keyed
    family = oracle.generate(4)
    sols = [
        sol
        for numbers, target in (([1, 5, 6, 7], 21), ([0, 1, 2, 3], INF), ([3, 3, 8, 8], 24))
        for sol in solve(make_query(numbers, target, want_all=True), family)
    ]
    assert sols
    orbits = oracle.compute_orbits(family.full_set(4), 4)
    assert orbits.classes == oracle.compute_orbits(oracle.generate(4).full_set(4), 4).classes
    for sol in sols:
        assert family.entry_of(to_canon(sol.witness)).cls.key == sol.class_key

    def no_record(*args):
        raise AssertionError("class keyed again")

    monkeypatch.setattr(oracle, "_record_class", no_record)
    for form, entry in family.full_set(4).entries.items():
        assert family.class_key(form) == entry.cls.key


def _all_trees(indices):
    if len(indices) == 1:
        yield Var(indices[0])
        return
    for cut in range(1, len(indices)):
        for left in _all_trees(indices[:cut]):
            for right in _all_trees(indices[cut:]):
                for op in "+-*/":
                    yield Node(op, left, right)


def _tree_brute_force_hits(numbers, target):
    point = {i + 1: F(v) for i, v in enumerate(numbers)}
    hits = []
    for leaves in permutations(range(1, len(numbers) + 1)):
        for tree in _all_trees(list(leaves)):
            value = eval_tree(tree, point)
            if value is not UNDEFINED and value == target:
                hits.append(tree)
    return hits


@pytest.mark.parametrize(
    "numbers,target",
    [
        ([1, 5, 6, 7], 21),
        ([2, 3, 5], 1),
        ([2, 3, 5], 17),
        ([1, 2, 3, 4], 10),
        ([3, 3, 8, 8], 24),
        ([2, 2, 4], 9),
        ([4, 4, 4], F(1, 3)),
    ],
)
def test_completeness_against_tree_brute_force(numbers, target, family4):
    # a target is reachable by some expression tree iff the solver reports a
    # solution whose witness tree itself evaluates to the target
    fam = family4 if len(numbers) == 4 else None
    sols = solve(make_query(numbers, target, want_all=True), fam)
    tree_hits = _tree_brute_force_hits(numbers, target)
    solver_tree_hits = [s for s in sols if not s.extension]
    assert bool(tree_hits) == bool(solver_tree_hits), (numbers, target)


def test_point_key_equal_points_share_a_key():
    assert _point_key(2, 4) == _point_key(-1, -2) == _point_key(1, 2)
    assert _point_key(0, 5) == _point_key(0, -5)
    assert _point_key(3, 0) == _point_key(-3, 0)
    # too large for a float: the reduced pair
    assert _point_key(10**400, 1) == _point_key(2 * 10**400, 2) == (10**400, 1)
    assert _point_key(10**400 + 1, 1) != _point_key(10**400, 1)
    assert _point_key(-(10**400), -3) == _point_key(10**400, 3)


# (numbers, target, hits) the lookup treats specially: many groups of one
# operand set need the same point (2, 2, 2, 2, 2); groups with c1 = c2 = 0
# take every step of their operand set, and 0:0 steps key as inf (0, 0, ...);
# 355 steps of the last puzzle are too large for a float and key by their
# reduced pair, and the hit at 21*10**400 + 1 is found through one of them
LOOKUP_SPECIALS = [
    ([F(2)] * 5, F(1), 1760),
    ([F(2)] * 5, F(0), 3380),
    ([F(2)] * 5, INF, 2830),
    ([F(0), F(0), F(1), F(2), F(3)], F(0), 5730),
    ([F(0), F(0), F(1), F(2), F(3)], INF, 6964),
    ([F(10**200), F(1, 10**200), F(3), F(7), F(1)], INF, 54),
    ([F(10**200), F(1, 10**200), F(3), F(7), F(1)], F(21 * 10**400), 2),
    ([F(10**200), F(1, 10**200), F(3), F(7), F(1)], F(21 * 10**400 + 1), 1),
]


@pytest.mark.parametrize("ops", ["+-*/", "+*", "+-*", "*/", "+-"])
def test_lookup_matches_plain_scan(ops):
    # the solver finds each full-level form through its last operation; a
    # plain scan values every form through its first decomposition
    family = oracle.generate(5 if ops == "+-*/" else 4, ops)
    n = family.n
    puzzles = prop_suites.scan_puzzles(31, 12, family, (n - 1, n, n))
    assert {len(numbers) for numbers, _ in puzzles} == {n - 1, n}
    puzzles = [(numbers, target, None) for numbers, target in puzzles]
    if ops == "+-*/":
        puzzles += LOOKUP_SPECIALS
    for numbers, target, count in puzzles:
        hits = prop_suites.plain_scan_hits(family, numbers, target)
        assert count in (None, len(hits)), (numbers, target)
        sols = solve(make_query(numbers, target, want_all=True), family)
        assert [s.witness for s in sols] == [family.witness(f) for f in hits], (numbers, target)


@pytest.mark.parametrize("ops,n", [("+-*/", n) for n in range(1, 6)] + [("+*", 4)])
def test_program_runs_partition_steps_sorted_by_operator(ops, n):
    # the steps come subset by subset in family order, each subset's sorted
    # by operator, and the runs name the one operator of each stretch
    family = oracle.generate(n, ops)
    program = _Program(family, n)
    full = frozenset(range(1, n + 1))
    steps = len(program.left)
    assert len(program.right) == steps
    assert all(count > 0 for _, count in program.runs)
    assert sum(count for _, count in program.runs) == steps
    step_ops = "".join(op * count for op, count in program.runs)
    assert set(step_ops) <= set(ops) | {"x"}
    # the forms the steps compute, operands before their uses
    forms = []
    for i, (op, a, b) in enumerate(zip(step_ops, program.left, program.right)):
        if op == "x":
            forms.append(canon.atom(a))
        else:
            assert a < i and b < i
            forms.append(canon.combine(op, forms[a], forms[b]))
    spans = {}
    lo = 0
    for varset in [s for s in family.sets if s < full] or [full]:
        entries = list(family.sets[varset].entries.values())
        hi = lo + len(entries)
        spans[lo] = hi
        got = [family.sets[varset].entries[form] for form in forms[lo:hi]]
        assert sorted(map(id, got)) == sorted(map(id, entries)), sorted(varset)
        assert list(step_ops[lo:hi]) == sorted(step_ops[lo:hi]), sorted(varset)
        for op in set(step_ops[lo:hi]):
            ran = [e for e, step_op in zip(got, step_ops[lo:hi]) if step_op == op]
            assert ran == [e for e in entries if (e.op or "x") == op], (sorted(varset), op)
        lo = hi
    assert lo == steps
    assert program.ranges
    for lo, hi, groups in program.ranges:
        assert spans.get(lo) == hi
        assert all(len(slots) == hi - lo for _, _, _, slots in groups)
