import gc
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import arithex
from arithex import InputError, canon, cli, mpoly, oracle, reference, solver
from arithex.cli import main
from arithex.counting import BREAKDOWN_MAX_N, COUNT_MAX_N, class_counts
from arithex.exprtree import MAX_DEPTH, DuplicateVariable, ExprSyntaxError, parse, to_canon

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def load_schema(name):
    with resources.files("arithex.schemas").joinpath(name).open() as handle:
        return json.load(handle)


def test_count_totals_line():
    code, out = run_cli("count", "--max-n", "9")
    assert code == 0
    assert "totals: 1 4 18 93 500 2844 16621 99674 608448" in out


def test_count_table_contains_reference_row():
    code, out = run_cli("count", "--max-n", "6")
    assert code == 0
    assert "n=6" in out and "2844" in out


def test_count_json_validates():
    code, out = run_cli("count", "--max-n", "6", "--format", "json")
    assert code == 0
    levels = json.loads(out)
    jsonschema.validate(levels, load_schema("count_levels.schema.json"))
    assert levels[5]["plus"] == {"first": 186, "second": 295, "third": 6}


def test_count_json_golden():
    code, out = run_cli("count", "--max-n", "6", "--format", "json")
    golden = (GOLDEN / "count6.json").read_text()
    assert out == golden


def test_count_csv():
    code, out = run_cli("count", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,op,type,count"
    assert "3,minus,second,6" in out


def test_count_to_sixty():
    # every level's monic pools halve an even second-type count, or the
    # fill raises OddSecondTypeCount
    code, out = run_cli("count", "--max-n", "60", "--format", "json")
    assert code == 0
    levels = json.loads(out)
    assert len(levels) == 60
    assert levels[:17] == class_counts(17).to_json_levels()
    for level in levels:
        plus, minus, times, div = (level[name]["second"] for name in ("plus", "minus", "times", "div"))
        assert (plus + minus) % 2 == times % 2 == div % 2 == 0, level["n"]


def test_count_breakdown_text():
    code, out = run_cli("count", "--max-n", "6", "--breakdown=-,third,6")
    assert code == 0
    assert "total: 19" in out


def test_count_breakdown_json_validates():
    code, out = run_cli(
        "count", "--max-n", "6", "--breakdown", "*,second,6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("breakdown.schema.json"))
    assert payload["total"] == 294
    nonzero = [tuple(t["factors"]) for t in payload["terms"] if t["value"]]
    assert nonzero == [(2, 6), (6, 5), (30, 2), (192, 1)]
    # a + cell lists partition-keyed terms
    code, out = run_cli(
        "count", "--max-n", "6", "--breakdown", "+,first,6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("breakdown.schema.json"))
    assert {t["kind"] for t in payload["terms"]} == {"partition"}
    assert "(1^2,4^1)" in [t["key"] for t in payload["terms"]]
    assert payload["total"] == class_counts(6).cell(6, "+", 1)


def test_count_breakdown_at_size_bound():
    # the largest cell a breakdown traces, with its p(40) partition terms
    n = BREAKDOWN_MAX_N
    code, out = run_cli("count", "--max-n", str(n), f"--breakdown=+,first,{n}")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.split()[0] == "partition") > 30000
    assert lines[-1] == f"total: {class_counts(n).cell(n, '+', 1)}"


def test_count_breakdown_bad_cell():
    code, out = run_cli("count", "--max-n", "6", "--breakdown", "frobnicate")
    assert code == 2


def test_oracle_table(tmp_path):
    dump = tmp_path / "classes.jsonl"
    code, out = run_cli("oracle", "--n", "3", "--dump", str(dump))
    assert code == 0
    assert "identity-distinct expressions: 68" in out
    assert "classes up to relabeling:      18" in out
    schema = load_schema("class_record.schema.json")
    lines = dump.read_text().splitlines()
    assert len(lines) == 18
    for line in lines:
        jsonschema.validate(json.loads(line), schema)
    # an input error is reported before the dump file is opened
    with redirect_stderr(io.StringIO()):
        assert run_cli("oracle", "--n", "3", "--ops", "+x", "--dump", str(dump))[0] == 2
    assert dump.read_text().splitlines() == lines


def test_oracle_dump_golden(tmp_path):
    # every class record of n = 5, byte for byte: key, witness, ending
    # operator, type and orbit size
    dump = tmp_path / "classes.jsonl"
    code, _ = run_cli("oracle", "--n", "5", "--dump", str(dump))
    assert code == 0
    assert dump.read_bytes() == (GOLDEN / "oracle5_dump.jsonl").read_bytes()


def test_verify5_golden():
    # every check line of the n = 5 verification, all four operators, seed 0
    code, out = run_cli("verify", "--max-n", "5")
    assert code == 0
    assert out.encode() == (GOLDEN / "verify5.txt").read_bytes()


def test_oracle_json():
    code, out = run_cli("oracle", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["identity_count"] == 6
    assert payload["orbit_count"] == 4
    assert payload["table"]["minus"]["third"] == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "argv, status",
    [
        (("count", "--max-n", "6"), 0),
        (("oracle", "--n", "3", "--format", "json"), 0),
        (("verify", "--max-n", "3"), 0),
        (("solve", "--numbers", "1,5,6,7", "--target", "21"), 0),
        (("classify", "--expr", "x1*(x2-x3)"), 0),
        (("oracle", "--n", "6"), 2),
    ],
    ids=["count", "oracle", "verify", "solve", "classify", "input-error"],
)
def test_commands_run_with_the_collector_held_off(argv, status, enabled, monkeypatch):
    # main holds the collector off around every command, and leaves it as
    # it found it, also when the command fails
    name = f"cmd_{argv[0]}"
    command = getattr(cli, name)
    seen = []

    def wrapped(args):
        seen.append(gc.isenabled())
        return command(args)

    monkeypatch.setattr(cli, name, wrapped)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _ = run_cli(*argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (code, seen, after) == (status, [False], enabled)


def test_oracle_depth_guard():
    code, _ = run_cli("oracle", "--n", "6")
    assert code == 2


def test_verify_exit_code():
    code, out = run_cli("verify", "--max-n", "3")
    assert code == 0
    assert "verification passed" in out


def test_verify_mismatch_exits_1(monkeypatch):
    monkeypatch.setitem(reference.IDENTITY_COUNTS, 3, 67)
    code, out = run_cli("verify", "--max-n", "3")
    assert code == 1
    assert "[MISMATCH] n=3 identity-count (68 vs 67)\n" in out
    assert out.endswith("verification FAILED\n")


@pytest.mark.parametrize(
    "op,rule,detail",
    [
        ("*", ("-", "+", "*", "/"), "rules ['*', '/'] all fired for "),
        ("+", (), "no ending rule fired for "),
    ],
)
def test_verify_ending_rule_failure_exits_1(monkeypatch, op, rule, detail):
    monkeypatch.setitem(oracle._END_RULES, op, rule)
    report = oracle.verify(3)
    [check] = report.checks
    assert (check.name, check.n, check.ok) == ("ending-rule-partition", 3, False)
    assert check.detail.startswith(detail)
    code, out = run_cli("verify", "--max-n", "3")
    assert code == 1
    assert out == f"{check.line()}\nverification FAILED\n"


def test_verify_series_parallel():
    code, out = run_cli("verify", "--max-n", "4", "--ops", "+*")
    assert code == 0


@pytest.mark.parametrize("ops", ["".join(c) for r in range(1, 5) for c in itertools.combinations("+-*/", r)])
def test_ops_fragments_never_mismatch(ops):
    # fragments with - but no +, or / but no *, are unsupported input: exit 2
    unsupported = ("-" in ops and "+" not in ops) or ("/" in ops and "*" not in ops)
    runs = [("verify", "--max-n", "4", f"--ops={ops}")]
    runs += [("oracle", "--n", str(n), f"--ops={ops}") for n in range(1, 5)]
    for argv in runs:
        with redirect_stderr(io.StringIO()) as err:
            code, _ = run_cli(*argv)
        assert code == (2 if unsupported else 0), (argv, err.getvalue())
        if unsupported:
            assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("--numbers", "1,2,3", "--target", "1/0"),
        ("--numbers", "1,2,3", "--target", "0/0"),
        ("--numbers", "1,0/0,3", "--target", "6"),
        ("--numbers", "1,2,3", "--target", "6", "--max-solutions", "-1"),
    ],
)
def test_solve_bad_input_exit_code(argv):
    with redirect_stderr(io.StringIO()) as err:
        code, out = run_cli("solve", *argv)
    assert code == 2
    assert out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--max-n", "0"),
        ("count", "--max-n", "6", "--breakdown", "+,first,9"),
        ("oracle", "--n", "2", "--ops", "+x"),
        ("oracle", "--n", "2", "--ops="),
        ("verify", "--max-n", "3", "--ops", "-*"),
        ("solve", "--numbers", "abc", "--target", "1"),
        ("solve", "--numbers", "1,2", "--target", "1/x"),
        ("solve", "--numbers", "1,2,3,4,5,6,7", "--target", "1"),
        ("classify", "--expr", "x1+x1"),
        ("classify", "--expr", "x\u00b2"),
        ("oracle", "--n", "3", "--dump", str(Path(__file__).parent / "no-such-dir" / "x")),
        ("oracle", "--n", "0"),
        ("oracle", "--n", "7", "--deep"),
        ("verify", "--max-n", "6"),
        ("count", "--max-n", "6", "--breakdown", "+,first,6", "--format", "csv"),
        ("count", "--max-n", f"{BREAKDOWN_MAX_N + 1}", f"--breakdown=/,first,{BREAKDOWN_MAX_N + 1}"),
        ("solve", "--numbers", "1,,2", "--target", "3"),
        ("solve", "--numbers", "1,2,", "--target", "3"),
        ("count", "--max-n", f"{COUNT_MAX_N + 1}"),
        ("classify", "--expr", "x1+x2", "--against", ""),
        ("classify", "--expr", "x1+x2", "--against", "", "--json"),
    ],
)
def test_input_errors_exit_2(argv):
    with redirect_stderr(io.StringIO()) as err:
        code, out = run_cli(*argv)
    assert code == 2
    assert out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() has no digit limit here")
@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--expr", "x1+x" + "9" * 5000),
        ("solve", "--numbers", "9" * 5000 + ",2", "--target", "3"),
        ("solve", "--numbers", "1e5000,1", "--target", "1e5000"),
        ("solve", "--numbers", "1e-5000,1", "--target", "1", "--json"),
    ],
)
def test_over_long_numbers_name_the_digit_limit(argv):
    # int() and str() refuse more than sys.get_int_max_str_digits() digits,
    # 4300 by default; exponent notation reaches them from short text
    with redirect_stderr(io.StringIO()) as err:
        code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert f" {sys.get_int_max_str_digits()} " in lines[0] and len(lines[0]) < 200, lines


def test_python_floor_has_the_digit_limit():
    # the parser and --numbers read sys.get_int_max_str_digits(), which
    # CPython added in 3.10.7; the declared floor must not admit older ones
    # (a regex: tomllib is not in 3.10)
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+(?:\.\d+)*)"$', text, re.M)
    assert floor, "no requires-python floor in pyproject.toml"
    assert tuple(map(int, floor.group(1).split("."))) >= (3, 10, 7), floor.group(0)
    assert hasattr(sys, "get_int_max_str_digits")


def _fraction_of_no_exponent(value, *args):
    # Fraction, for any text but one in exponent notation, for which it
    # would build 10**E first: seconds to minutes for the ones below
    assert not (isinstance(value, str) and "e" in value.lower()), value
    return Fraction(value, *args)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() has no digit limit here")
@pytest.mark.parametrize("number", ["1e10000000", "-1.5E+100000000", "1e-10000000", "0.001e-99999999"])
def test_huge_exponents_are_refused_from_the_text(number, monkeypatch):
    # the text alone shows the value over-long, so it is refused at once
    monkeypatch.setattr(cli, "Fraction", _fraction_of_no_exponent)
    with redirect_stderr(io.StringIO()) as err:
        code, out = run_cli("solve", "--numbers", f"{number},1", "--target", "1")
    assert code == 2 and out == ""
    lines = err.getvalue().splitlines()
    assert lines == [f"error: --numbers value has more than {sys.get_int_max_str_digits()} digits"]


@pytest.mark.parametrize("zero", ["0e10000000", "-0.000E-99999999999", ".0e+10000000"])
def test_zero_with_a_huge_exponent_solves_as_zero(zero, monkeypatch):
    expected = run_cli("solve", "--numbers", "0,1,2", "--target", "2", "--json")
    monkeypatch.setattr(cli, "Fraction", _fraction_of_no_exponent)
    assert run_cli("solve", "--numbers", f"{zero},1,2", "--target", "2", "--json") == expected


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 400 + "x1" + ")" * 400,
        "-".join(f"x{i}" for i in range(1, 991)),
    ],
    ids=["400-nested-parentheses", "990-variable-chain"],
)
def test_deep_expressions_are_input_errors(expr):
    # the parser and the walks over a tree recurse once per level: beyond
    # MAX_DEPTH the expression is refused, not a RecursionError
    with redirect_stderr(io.StringIO()) as err:
        code, out = run_cli("classify", "--expr", expr)
    assert code == 2 and out == ""
    lines = err.getvalue().splitlines()
    assert lines == [lines[0]] and lines[0].startswith("error: expression nests more than 200 ")


def test_nesting_up_to_max_depth_is_accepted():
    # MAX_DEPTH parentheses, and MAX_DEPTH operators on one path, one on
    # the left and one on the right of each node
    assert MAX_DEPTH == 200
    parens = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    assert run_cli("classify", "--expr", parens)[0] == 0
    chain = "-".join(f"x{i}" for i in range(1, MAX_DEPTH + 2))
    nested = "x1" + "".join(f"/(x{i}" for i in range(2, MAX_DEPTH + 2)) + ")" * MAX_DEPTH
    for text in (chain, nested):
        code, out = run_cli("classify", "--expr", text, "--against", text)
        assert code == 0 and out.endswith("isomorphic to --against: yes\n")
    for text in ("(" + parens + ")", chain + "-x999", nested.replace("x1/", "x999/(x1/") + ")"):
        with pytest.raises(InputError, match=f"nests more than {MAX_DEPTH} "):
            parse(text)


@pytest.mark.parametrize("option", ["--expr", "--against"])
def test_expression_beyond_the_term_bound_is_an_input_error(option, monkeypatch):
    # a product of 18 two-variable sums has 2^18 terms: refused from its
    # tree before either expression expands
    def no_expansion(*args, **kwargs):
        raise AssertionError("expanded")

    big = "*".join(f"(x{2 * i + 1}+x{2 * i + 2})" for i in range(18))
    argv = {"--expr": "x1+x2", "--against": "x3*x4"}
    argv[option] = big
    monkeypatch.setattr(canon, "pair_combiner", no_expansion)
    with redirect_stderr(io.StringIO()) as err:
        code, out = run_cli("classify", "--expr", argv["--expr"], "--against", argv["--against"])
    assert code == 2 and out == ""
    assert err.getvalue() == "error: expression expands to more than 131072 terms\n"


def test_input_error_classes():
    for cls in (
        oracle.LimitExceeded,
        oracle.UnsupportedOps,
        solver.TooManyNumbers,
        ExprSyntaxError,
        DuplicateVariable,
    ):
        assert issubclass(cls, InputError)
    for cls in (canon.OverlappingVariables, mpoly.ZeroPolynomial):
        assert not issubclass(cls, InputError)


@pytest.mark.parametrize(
    "exc",
    [
        canon.OverlappingVariables("operands share variables [1]"),
        mpoly.ZeroPolynomial("zero polynomial has no leading monomial"),
        oracle.ClassificationAmbiguous("rules ['+', '*'] all fired"),
    ],
)
def test_internal_failure_is_not_a_usage_error(exc, monkeypatch):
    # an invariant failure propagates; it never poses as exit 2
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(oracle, "classify_level", broken)
    with pytest.raises(type(exc)):
        main(["oracle", "--n", "2"])


@pytest.mark.parametrize(
    "argv,lines_read",
    [
        # about 250 kB of output, so the program is still writing at the close
        (("count", "--max-n", "150"), 1),
        # closed before any output: the last flush is the first write
        (("solve", "--numbers", "1,5,6,7", "--target", "21"), 0),
    ],
)
def test_closed_stdout_ends_output(argv, lines_read):
    # a reader that stops early, as `arithex ... | head -1` does; stdout
    # buffered, as it is by default on a pipe
    env = dict(os.environ, PYTHONPATH=str(Path(arithex.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "arithex.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
def test_full_dump_file_is_an_input_error():
    # /dev/full opens, and the write or the close of the dump fails
    with redirect_stderr(io.StringIO()) as err:
        code, out = run_cli("oracle", "--n", "1", "--dump", "/dev/full")
    assert code == 2
    assert out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write --dump file"), lines


@needs_dev_full
def test_full_stdout_is_an_input_error():
    env = dict(os.environ, PYTHONPATH=str(Path(arithex.__file__).parents[1]))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "arithex.cli", "count", "--max-n", "5"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write to stdout"), lines


def test_option_values_starting_with_dash():
    with redirect_stderr(io.StringIO()) as err:
        code, _ = run_cli("verify", "--max-n", "3", "--ops", "-*")
    assert code == 2 and "cannot be classified" in err.getvalue()
    code, out = run_cli("verify", "--max-n", "3", "--ops", "-+*/")
    assert code == 0 and "verification passed" in out
    code, out = run_cli("solve", "--numbers", "-1,2", "--target", "-3")
    assert code == 0 and "x1-x2 = -3" in out
    code, out = run_cli("solve", "--numbers", "-1/2,3", "--target", "-1/6", "--json")
    assert code == 0
    assert json.loads(out)["numbers"] == ["-1/2", "3"]
    assert run_cli("solve", "--numbers=-1,2", "--target=-3") == run_cli(
        "solve", "--numbers", "-1,2", "--target", "-3"
    )


def test_solve_max_solutions_zero():
    code, out = run_cli("solve", "--numbers", "1,5,6,7", "--target", "21", "--max-solutions", "0")
    assert code == 0
    assert "no solutions" in out and "classes: 0" in out


def test_solve_puzzle_21():
    code, out = run_cli("solve", "--numbers", "1,5,6,7", "--target", "21")
    assert code == 0
    assert "classes: 1" in out
    assert "= 21" in out


def test_solve_json_validates():
    code, out = run_cli(
        "solve", "--numbers", "1,5,6,7", "--target", "21", "--all", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("solve.schema.json"))
    assert payload["classes"] == 1
    assert payload["solutions"]
    assert payload["numbers"] == ["1", "5", "6", "7"]


def test_solve_no_solution():
    code, out = run_cli("solve", "--numbers", "2,3", "--target", "7")
    assert code == 0
    assert "no solutions" in out and "classes: 0" in out


def test_solve_infinite_target():
    code, out = run_cli("solve", "--numbers", "1,2,2", "--target", "inf")
    assert code == 0
    assert "= inf" in out


def test_solve_rational_numbers():
    code, out = run_cli("solve", "--numbers", "1/2,3", "--target", "3/2")
    assert code == 0
    assert "classes:" in out


def test_classify_text():
    code, out = run_cli("classify", "--expr", "x1*(x2-x3)")
    assert code == 0
    assert "ends with:  *" in out
    assert "type:       3" in out
    code, out = run_cli("classify", "--expr", "x3+x2*x7")
    assert code == 0
    assert "relabeled:  (x1*x3 + x2) / (1) (for classification)\n" in out
    code, out = run_cli("classify", "--expr", "x1+x2+x3+x4+x5+x6")
    assert code == 0
    assert "ends with:  (classification available up to 5 variables)\n" in out
    assert "type:" not in out


def test_classify_json_validates():
    code, out = run_cli("classify", "--expr", "x1*(x2-x3)", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("classify.schema.json"))
    assert payload["endop"] == "*"
    assert payload["type"] == 3


def test_classify_json_matches_full_pipeline():
    family = oracle.generate(5)
    aeset = family.full_set(5)
    oracle.compute_orbits(aeset, 5)
    types = set()
    for text in ("x1+x2+x3+x4+x5", "x1-x2*x3+x4/x5", "x1+x2*(x3-x4)-x5"):
        code, out = run_cli("classify", "--expr", text, "--json")
        assert code == 0
        payload = json.loads(out)
        entry = aeset.entries[to_canon(parse(text))]
        assert (payload["endop"], payload["type"]) == (entry.endop, entry.cls.typeclass)
        types.add(payload["type"])
    assert types == {1, 2, 3}


def test_classify_against():
    code, out = run_cli(
        "classify", "--expr", "x1/(x2-x3)+x4", "--against", "x2-x4/(x3-x1)"
    )
    assert code == 0
    assert "isomorphic to --against: yes" in out


def test_classify_against_another_size():
    argv = ("classify", "--expr", "x1/(x2-x3)+x4", "--against", "x1/(x2-x3)")
    code, out = run_cli(*argv)
    assert code == 0
    assert "isomorphic to --against: no" in out
    code, out = run_cli(*argv, "--json")
    assert code == 0
    assert json.loads(out)["isomorphic_to_against"] is False


def test_classify_relabels_gaps():
    code, out = run_cli("classify", "--expr", "x3+x2*x7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relabeled"] is True
    assert payload["variables"] == [2, 3, 7]
    assert payload["endop"] == "+"


def test_classify_syntax_error_exit_code():
    code, _ = run_cli("classify", "--expr=-x1-x2*x3")
    assert code == 2


def test_usage_error_exit_code():
    # option prefixes are not accepted: each option has one spelling
    for argv in (["count"], ["solve", "--num", "1,2", "--target", "3"]):
        with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_determinism():
    for argv in (
        ("count", "--max-n", "8", "--format", "json"),
        ("oracle", "--n", "3", "--format", "json"),
        ("verify", "--max-n", "3", "--seed", "5"),
        ("solve", "--numbers", "1,5,6,7", "--target", "21", "--all", "--json"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


# -- grammar fuzz ---------------------------------------------------------------

_FUZZ_SEED, _FUZZ_RUNS = 20261020, 500
# pieces a field is made of or mutated with: broken syntax, unicode digits
# and letters, control characters, and numbers too long or undefined
_FUZZ_JUNK = ["", " ", "\t", "\x00", "x", "x0", "x-1", "(", ")", "()", "+", "-", "*", "/", "**",
              "٣", "²", "é", "∞", "½", "1e5000", "1/0", "1_0", "0x1f",
              "nan", "inf", "x" + "9" * 5000, "9" * 5000]
_FUZZ_INDICES = [1, 2, 3, 4, 5, 9, 10, 77, 10 ** 40]
_FUZZ_NUMBERS = (["0", "1", "2", "3", "7", "-4", "1/3", "2.5", " 6 ", "+5", "1e3", "-0.0"],
                 ["0e999999999", "1e5000", "1e-5000", "1/0", "٣", "", " ", "x", "inf", "nan",
                  "1_000", "9" * 5000, "½", "1e", "--1"])


def _field(rng, valid, broken):
    """A field's value: valid three times in four."""
    return rng.choice(valid if rng.random() < 0.75 else broken)


def _fuzz_tree(rng, leaves):
    """Text of a random expression tree on the given leaves, some of its
    subtrees in parentheses, with varied spacing."""
    if len(leaves) == 1:
        text = leaves[0]
    else:
        cut = rng.randint(1, len(leaves) - 1)
        op = rng.choice(["+", "-", "*", "/", " * ", "\t-", " /"])
        text = _fuzz_tree(rng, leaves[:cut]) + op + _fuzz_tree(rng, leaves[cut:])
    return f"({text})" if rng.random() < 0.3 else text


def _fuzz_expression(rng):
    """An expression on at most 4 variables, mutated three times in seven, or
    one nested or chained around MAX_DEPTH."""
    kind = rng.random()
    if kind < 0.1:
        depth = rng.choice([1, 50, MAX_DEPTH, MAX_DEPTH + 1, 1000])
        return "(" * depth + "x1" + ")" * depth
    if kind < 0.2:
        length = rng.choice([MAX_DEPTH + 2, 300, 990])
        return rng.choice("+-*/").join(f"x{i}" for i in range(1, length + 1))
    leaves = [f"x{i}" for i in rng.sample(_FUZZ_INDICES, rng.randint(1, 4))]
    text = _fuzz_tree(rng, leaves)
    for _ in range(rng.choice([0, 0, 0, 0, 1, 2, 3])):
        at = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.5:
            text = text[:at] + rng.choice(_FUZZ_JUNK) + text[at:]
        elif edit < 0.75:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice("x()+-*/ 0123456789٣") + text[at + 1:]
    return text


def _fuzz_ops(rng):
    broken = "".join(rng.choice("+-*/+-*/x ٣") for _ in range(rng.randint(0, 4)))
    return _field(rng, ["+-*/", "+", "*", "+*", "+-*", "*/", "/*-+", "++"], [broken])


def _fuzz_argv(rng, tmp_path):
    """One command line: a subcommand and its options, each field drawn
    from valid and broken values.  The builds stay small: classify on at
    most 4 variables, oracle and verify at n <= 3, count to at most 60 and
    no six-number solve."""
    pick = rng.choice
    command = pick(["count", "oracle", "verify", "solve", "classify"])
    if command == "count":
        argv = ["count", "--max-n", _field(rng, ["1", "2", "17", "30", "60", " 12", "٣٠"],
                                           ["0", "-1", "", "x", "1e5000", "9" * 30])]
        argv += ["--format", _field(rng, ["table", "json", "csv"], ["xml", ""])]
        if rng.random() < 0.4:
            cell = [_field(rng, ["+", "-", "*", "/"], ["^", "", "÷"]),
                    _field(rng, ["first", "second", "third", " first"], ["fourth", ""]),
                    _field(rng, ["2", "6", "17", "٣"], ["41", "0", "-3", "x", "1e5000"])]
            argv += ["--breakdown", ",".join(cell[:rng.choice([1, 2, 3, 3, 3, 3])])]
    elif command == "oracle":
        argv = ["oracle", "--n", _field(rng, ["1", "2", "3", "٣"],
                                        ["0", "-1", "7", "99", "", "x", "1e5000", "٣٣"])]
        argv += ["--ops", _fuzz_ops(rng)] if rng.random() < 0.7 else []
        argv += ["--deep"] if rng.random() < 0.3 else []
        argv += ["--format", _field(rng, ["table", "json"], ["yaml"])]
        if rng.random() < 0.3:
            name = _field(rng, ["dump.jsonl", "é"], ["no-such-dir/x"])
            argv += ["--dump", str(tmp_path / name)]
    elif command == "verify":
        argv = ["verify", "--max-n", _field(rng, ["1", "2", "3", "٣"], ["0", "6", "7", "", "x"])]
        argv += ["--ops", _fuzz_ops(rng)] if rng.random() < 0.7 else []
        if rng.random() < 0.5:
            argv += ["--seed", _field(rng, ["0", "1", "-5", "9" * 30], ["x", ""])]
    elif command == "solve":
        count = rng.choices([1, 2, 3, 4, 5, 7], weights=[3, 6, 6, 6, 1, 2])[0]
        argv = ["solve", "--numbers", ",".join(_field(rng, *_FUZZ_NUMBERS) for _ in range(count)),
                "--target", _field(rng, _FUZZ_NUMBERS[0] + ["inf", "oo", "24"], _FUZZ_NUMBERS[1])]
        argv += ["--all"] if rng.random() < 0.3 else []
        argv += ["--json"] if rng.random() < 0.3 else []
        if rng.random() < 0.3:
            argv += ["--max-solutions", _field(rng, ["0", "3", "٣"], ["-1", "x", ""])]
    else:
        argv = ["classify", "--expr", _fuzz_expression(rng)]
        argv += ["--against", _fuzz_expression(rng)] if rng.random() < 0.3 else []
        argv += ["--json"] if rng.random() < 0.3 else []
    return argv


def test_grammar_fuzz(tmp_path):
    # seeded command lines through every subcommand, in process: each ends
    # with exit 0 or 2 and no traceback, and an exit 2 prints one error line
    rng = random.Random(_FUZZ_SEED)
    codes = []
    for _ in range(_FUZZ_RUNS):
        argv = _fuzz_argv(rng, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{argv!r} raised {exc!r}")
        text = err.getvalue()
        assert code in (0, 2) and "Traceback" not in text + out.getvalue(), (argv, code, text)
        if code == 2:
            assert sum("error:" in line for line in text.splitlines()) == 1, (argv, text)
        codes.append(code)
    # the mix holds both outcomes in number
    assert codes.count(0) > _FUZZ_RUNS // 5 and codes.count(2) > _FUZZ_RUNS // 5
