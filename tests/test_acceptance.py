"""Acceptance criteria, one test per criterion, each printing a PASS line.

The deep halves of criteria 4 and 5 (the six-variable exhaustive count,
its forms' unit coefficients and its classes, against the engine and
against the orbits) share one n = 6 build, take minutes and run only when
ARITHEX_DEEP=1 is set in the environment.
"""

import io
import os
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from arithex import canon, counting, oracle, reference, solver
from arithex.canon import assign_zero, eval_form, is_isomorphic, orbit_key
from arithex.cli import main as cli_main
from arithex.exprtree import eval_tree, parse, to_canon
from arithex.projrat import INF, UNDEFINED, p_add, p_div, p_mul, p_sub

import prop_suites

F = Fraction


def _report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def family5_data():
    start = time.monotonic()
    family = oracle.generate(5)
    elapsed = time.monotonic() - start
    return family, elapsed


@pytest.fixture(scope="module")
def engine17():
    return counting.class_counts(17)


def test_criterion_01_totals_through_17():
    start = time.monotonic()
    code, out = _run_cli("count", "--max-n", "17")
    elapsed = time.monotonic() - start
    assert code == 0
    expected = " ".join(str(reference.ORBIT_TOTALS[n]) for n in range(1, 18))
    assert f"totals: {expected}" in out
    assert expected.endswith("1717542967251")
    assert elapsed < 5.0
    _report(1, "totals n=1..17", f"{elapsed:.2f}s")


def test_criterion_02_category_tables(engine17):
    start = time.monotonic()
    table = counting.class_counts(6)
    for n, level in reference.CATEGORY_TABLES.items():
        for op, by_type in level.items():
            for t, expected in by_type.items():
                assert table.cell(n, op, t) == expected, (n, op, t)
    by_type_totals = {
        t: sum(table.cell(6, op, t) for op in "+-*/") for t in (1, 2, 3)
    }
    assert by_type_totals == {1: 497, 2: 2116, 3: 231}
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, "category tables n=1..6", f"{elapsed:.2f}s")


def test_criterion_03_worked_breakdowns(engine17):
    bd = counting.worked_breakdown(engine17, 6, "+", 1)
    assert bd.total == 186
    values = sorted(t.value for t in bd.terms)
    assert values == [1, 2, 3, 4, 6, 12, 20, 21, 40, 77]

    bd = counting.worked_breakdown(engine17, 6, "-", 3)
    assert [(t.factors, t.value) for t in bd.terms] == [
        ((10, 1), 10),
        ((0, 3), 0),
        ((1, 9), 9),
    ]
    assert bd.total == 19

    bd = counting.worked_breakdown(engine17, 6, "*", 2)
    assert [t.factors for t in bd.terms if t.value] == [
        (2, 6),
        (6, 5),
        (30, 2),
        (192, 1),
    ]
    assert bd.total == 294
    _report(3, "worked breakdowns at n=6")


def test_criterion_04_identity_counts(family5_data):
    family, build_seconds = family5_data
    for k, expected in ((1, 1), (2, 6), (3, 68), (4, 1170), (5, 27142)):
        assert len(family.full_set(k).entries) == expected
    assert build_seconds < 60.0
    _report(4, "identity counts n<=5", f"built in {build_seconds:.2f}s")


deep = pytest.mark.skipif(
    not os.environ.get("ARITHEX_DEEP"),
    reason="six-variable exhaustive build runs only with ARITHEX_DEEP=1",
)


@pytest.fixture(scope="module")
def family6_data():
    start = time.monotonic()
    family = oracle.generate(6)
    return family, time.monotonic() - start


@deep
def test_criterion_04_deep_identity_count_n6(family6_data):
    family, elapsed = family6_data
    count = len(family.full_set(6).entries)
    assert count == 793002
    assert elapsed < 1800.0
    _report(4, "deep identity count n=6", f"{elapsed:.1f}s")


@deep
def test_criterion_04_deep_unit_coefficients_n6(family6_data):
    family, _ = family6_data
    start = time.monotonic()
    # the forms on every nonempty subset of {1..6}
    assert prop_suites.check_unit_forms(family) == 974860
    elapsed = time.monotonic() - start
    _report(4, "deep unit coefficients n=6", f"{elapsed:.1f}s")


def test_criterion_05_oracle_vs_engine(family5_data, engine17):
    family, _ = family5_data
    start = time.monotonic()
    for k in range(1, 6):
        aeset = family.full_set(k)
        orbits = oracle.compute_orbits(aeset, k)
        assert len(orbits) == engine17.total(k)
        cells = oracle.category_table(orbits)
        for op in "+-*/":
            for t in (1, 2, 3):
                assert cells[op][t] == engine17.cell(k, op, t), (k, op, t)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(5, "oracle vs engine n<=5", f"{elapsed:.2f}s")


@deep
def test_criterion_05_deep_oracle_vs_engine_n6(family6_data):
    family, _ = family6_data
    start = time.monotonic()
    aeset = family.full_set(6)
    orbits = oracle.compute_orbits(aeset, 6)
    assert len(orbits) == 2844
    assert sum(c.size for c in orbits.classes) == 793002
    engine = counting.class_counts(6)
    cells = oracle.category_table(orbits)
    for op in "+-*/":
        for t in (1, 2, 3):
            assert cells[op][t] == engine.cell(6, op, t), (op, t)
    elapsed = time.monotonic() - start
    _report(5, "deep oracle vs engine n=6", f"{elapsed:.1f}s")


@deep
def test_criterion_05_deep_classes_are_orbits_n6(family6_data):
    family, _ = family6_data
    start = time.monotonic()
    assert prop_suites.check_classes_are_orbits(family.full_set(6), 6) == 2844
    elapsed = time.monotonic() - start
    _report(5, "deep classes are orbits n=6", f"{elapsed:.1f}s")


def test_criterion_06_listings(family5_data):
    family, _ = family5_data
    entries3 = family.full_set(3).entries
    expected_forms = {to_canon(parse(t)) for t in reference.THREE_VAR_EXPRESSIONS}
    assert len(expected_forms) == 68
    assert set(entries3) == expected_forms
    orbits3 = oracle.compute_orbits(family.full_set(3), 3)
    expected_keys = {orbit_key(to_canon(parse(t))) for t in reference.THREE_VAR_CLASSES}
    assert len(expected_keys) == 18
    assert {c.key for c in orbits3.classes} == expected_keys
    _report(6, "three-variable listings")


def test_criterion_07_series_parallel_fragment():
    report = oracle.verify(5, ops="+*", seed=2)
    assert report.ok, "\n".join(c.line() for c in report.checks if not c.ok)
    counts = [
        c for c in report.checks if c.name == "orbit-count-series-parallel"
    ]
    assert [c.n for c in counts] == [1, 2, 3, 4, 5]
    assert all(c.ok for c in counts)
    listing = [c for c in report.checks if c.name == "series-parallel-four-var-classes"]
    assert listing and listing[0].ok
    _report(7, "series-parallel fragment 1,2,4,10,24 + four-var classes")


def test_criterion_08_ending_rule_partition(family5_data):
    family, _ = family5_data
    classified = 0
    for aeset in family.sets.values():
        for entry in aeset.entries.values():
            assert entry.cls.endop in "+-*/"
            classified += 1
    _report(8, "ending-rule partition n<=5", f"{classified} expressions")


def test_criterion_09_puzzle_21():
    start = time.monotonic()
    query = solver.make_query([1, 5, 6, 7], 21, want_all=True)
    solutions = solver.solve(query)
    elapsed = time.monotonic() - start
    assert solutions
    assert solver.class_uniqueness(solutions) == 1
    expected_key = orbit_key(to_canon(parse("x1/(x2-x3/x4)")))
    point = {1: F(1), 2: F(5), 3: F(6), 4: F(7)}
    for sol in solutions:
        assert sol.class_key == expected_key
        form = to_canon(sol.witness)
        assert eval_form(form, point) == 21
        assert eval_tree(sol.witness, point) == 21
    rep = canon.relabel_contiguous(to_canon(solutions[0].witness))
    target = canon.relabel_contiguous(to_canon(parse("x1/(x2-x3/x4)")))
    assert is_isomorphic(rep, target) is not None
    assert elapsed < 5.0
    _report(9, "21-puzzle", f"{len(solutions)} witnesses, one class, {elapsed:.2f}s")


@deep
def test_criterion_09_deep_solve_n6(family6_data):
    # six-number puzzles, the first projective: the solver's lookup by the
    # last operation against a plain scan of all 793002 forms
    family, _ = family6_data
    start = time.monotonic()
    puzzles = prop_suites.scan_puzzles(61, 3, family, (6,))
    assert puzzles[0][1] is INF
    hits = 0
    for numbers, target in puzzles:
        expected = prop_suites.plain_scan_hits(family, numbers, target)
        query = solver.make_query(numbers, target, want_all=True)
        got = [sol.witness for sol in solver.solve(query, family)]
        assert got == [family.witness(form) for form in expected], (numbers, target)
        hits += len(got)
    elapsed = time.monotonic() - start
    _report(9, "deep solve n=6 vs plain scan", f"{len(puzzles)} puzzles, {hits} hits, {elapsed:.1f}s")


def test_criterion_10_projective_case_matrix():
    nonzero, zero = F(5), F(0)
    undefined = set()
    for name, op in (("+", p_add), ("-", p_sub), ("*", p_mul), ("/", p_div)):
        for la, a in (("n", nonzero), ("0", zero), ("i", INF)):
            for lb, b in (("n", nonzero), ("0", zero), ("i", INF)):
                result = op(a, b)
                if result is UNDEFINED:
                    undefined.add((name, la, lb))
                    continue
                if name == "+":
                    expected = a + b if la != "i" and lb != "i" else INF
                elif name == "-":
                    expected = a - b if la != "i" and lb != "i" else INF
                elif name == "*":
                    expected = a * b if la != "i" and lb != "i" else INF
                else:
                    if lb == "i":
                        expected = F(0)
                    elif lb == "0":
                        expected = INF
                    elif la == "i":
                        expected = INF
                    else:
                        expected = a / b
                assert result == expected or result is expected, (name, la, lb)
    assert undefined == {
        ("+", "i", "i"),
        ("-", "i", "i"),
        ("*", "0", "i"),
        ("*", "i", "0"),
        ("/", "0", "0"),
        ("/", "i", "i"),
    }
    _report(10, "projective arithmetic case matrix")


def test_criterion_11_zero_assignment_cases():
    res = assign_zero(to_canon(parse("(x1+x2)/(x5-x3/x4)")), 3)
    assert res.kind == "form"
    assert res.form == to_canon(parse("(x1+x2)/x5"))

    f = to_canon(parse("x1*(x2-x3/x4)"))
    assert assign_zero(f, 1).kind == "zero"
    assert assign_zero(f, 4).kind == "infinity"

    res = assign_zero(to_canon(parse("x1-x2")), 1)
    assert res.kind == "non_ae"
    assert res.num.text() == "-x2" and res.den.text() == "1"
    _report(11, "zero-assignment cases")


def test_criterion_12_property_suites():
    cases = 1000
    seed = 20260810
    details = []
    for name, suite in prop_suites.ALL_SUITES:
        executed = suite(seed, cases)
        assert executed > 0
        details.append(f"{name}:{executed}")
    _report(12, "property suites", "; ".join(details))


def test_criterion_13_ratio_fixtures(engine17):
    ratios = {
        n: Fraction(reference.IDENTITY_COUNTS[n], engine17.total(n))
        for n in (15, 16, 17)
    }
    m16 = ratios[16] / ratios[15]
    m17 = ratios[17] / ratios[16]
    assert Fraction("13.77") <= m16 <= Fraction("13.79")
    assert Fraction("14.64") <= m17 <= Fraction("14.66")
    _report(13, "growth-ratio fixtures", f"m16={float(m16):.4f} m17={float(m17):.4f}")
