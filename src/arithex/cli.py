"""Command-line interface binding the engine, the oracle and the solver.

Subcommands::

    count     recurrence-engine class tables (table / json / csv, breakdowns)
    oracle    exhaustive generation: identity counts, orbits, classification
    verify    cross-check oracle vs engine vs published values (exit 1 on
              any mismatch)
    solve     target-number puzzles over exact rationals
    classify  canonical form and classification of one expression

Outputs are deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import canon, counting, oracle, solver
from .errors import InputError
from .exprtree import parse as parse_expr, pretty, to_canon
from .partitions import partition_text
from .projrat import INF, fmt

_TYPE_BY_NAME = {"first": 1, "second": 2, "third": 3}

ORACLE_DEFAULT_MAX_N = 5


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: each option has one spelling, which main() folds
    parser = argparse.ArgumentParser(
        prog="arithex",
        description="count, verify and search single-use arithmetic expressions",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", allow_abbrev=False, help="class tables from the recurrences")
    p_count.add_argument("--max-n", type=int, required=True)
    p_count.add_argument(
        "--breakdown",
        metavar="OP,TYPE,N",
        help="summand trace for one cell, e.g. '-,third,6'",
    )
    p_count.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_count.set_defaults(func=cmd_count)

    p_oracle = sub.add_parser("oracle", allow_abbrev=False, help="exhaustive generation and orbits")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--ops", default="+-*/")
    p_oracle.add_argument(
        "--deep", action="store_true", help=f"allow n = {oracle.MAX_N} (seconds, about 0.26 GB)"
    )
    p_oracle.add_argument("--dump", metavar="FILE", help="write one JSON line per class")
    p_oracle.add_argument("--format", choices=("table", "json"), default="table")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", allow_abbrev=False, help="oracle vs engine vs known values")
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--ops", default="+-*/")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", allow_abbrev=False, help="reach a target from given numbers")
    p_solve.add_argument("--numbers", required=True, help="comma-separated rationals")
    p_solve.add_argument("--target", required=True, help="rational or 'inf'")
    p_solve.add_argument("--all", action="store_true", help="all witnesses, not one per class")
    p_solve.add_argument("--max-solutions", type=int, default=None)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_classify = sub.add_parser(
        "classify", allow_abbrev=False, help="canonical form of one expression"
    )
    p_classify.add_argument("--expr", required=True)
    p_classify.add_argument("--against", help="second expression for an isomorphism check")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=cmd_classify)

    return parser


def _value_options(parser: argparse.ArgumentParser) -> set:
    """Every option string, across the subcommands, that takes a value."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        if action.nargs != 0
        for option in action.option_strings
    }


def _fold_option_values(argv: list, options: set) -> list:
    """Join each ``OPT VALUE`` into ``OPT=VALUE``, so that a value starting
    with '-' (``--ops -*``, ``--numbers -1,2``) is not taken for an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in options else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    """Run one command.  The cyclic garbage collector is off while it runs,
    since the builds make no reference cycles (see ``oracle``), and is back
    on afterwards if it was on before, whether the command returns or
    raises."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_fold_option_values(argv, _value_options(parser)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a failed write to stdout: a closed pipe ends the output, any other
        # failure (a full disk) is an error; what is still buffered goes to
        # /dev/null, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


# -- count --------------------------------------------------------------------


def _parse_cell(spec: str, n_max: int):
    try:
        op, type_name, n_text = spec.split(",")
        type_ = _TYPE_BY_NAME[type_name.strip()]
        n = int(n_text)
    except (ValueError, KeyError):
        raise InputError(
            f"breakdown cell must be 'OP,TYPE,N' with OP in + - * / and "
            f"TYPE in first/second/third, got {spec!r}"
        ) from None
    op = op.strip()
    if op not in counting.OPS or not 2 <= n <= n_max:
        raise InputError(f"no cell ({op}, {type_name}, {n}) within --max-n {n_max}")
    return op, type_, n


def _term_json(term: counting.Term) -> dict:
    if term.kind == "partition":
        key = partition_text(term.key)
    else:
        key = term.key
    return {
        "kind": term.kind,
        "key": key,
        "factors": list(term.factors),
        "value": term.value,
    }


def cmd_count(args) -> int:
    if args.breakdown and args.format == "csv":
        raise InputError("--breakdown prints text or json, not csv")
    table = counting.class_counts(args.max_n)
    if args.breakdown:
        op, type_, n = _parse_cell(args.breakdown, args.max_n)
        bd = counting.worked_breakdown(table, n, op, type_)
        if args.format == "json":
            payload = {
                "n": n,
                "op": op,
                "type": counting.TYPE_NAMES[type_],
                "terms": [_term_json(t) for t in bd.terms],
                "total": bd.total,
            }
            print(json.dumps(payload, indent=2))
        else:
            print(f"cell op={op} type={counting.TYPE_NAMES[type_]} n={n}")
            for t in bd.terms:
                key = partition_text(t.key) if t.kind == "partition" else t.key
                factors = "*".join(str(f) for f in t.factors)
                print(f"  {t.kind:12} {str(key):14} {factors} = {t.value}")
            print(f"total: {bd.total}")
        return 0
    if args.format == "json":
        print(json.dumps(table.to_json_levels(), indent=2))
    elif args.format == "csv":
        print(table.to_csv(), end="")
    else:
        print(table.to_text())
        print("totals: " + table.totals_line())
    return 0


# -- oracle -------------------------------------------------------------------


def cmd_oracle(args) -> int:
    limit = oracle.MAX_N if args.deep else ORACLE_DEFAULT_MAX_N
    if not 1 <= args.n <= limit:
        hint = "" if args.deep else f" (use --deep for n = {oracle.MAX_N})"
        raise InputError(f"--n must be within 1..{limit}{hint}")
    oracle.check_classifiable(args.ops)
    # opened before the build, so an unwritable path fails in no time; a
    # failed open, write or close is the same input error
    try:
        with open(args.dump, "w", encoding="utf-8") if args.dump else nullcontext() as dump:
            ops, identity_count, orbit_count, cells = oracle.summarize(args.n, args.ops, dump)
    except OSError as exc:
        raise InputError(f"cannot write --dump file {args.dump!r}: {exc.strerror}") from None
    if args.format == "json":
        payload = {
            "n": args.n,
            "ops": ops,
            "identity_count": identity_count,
            "orbit_count": orbit_count,
            "table": {
                counting.OP_NAMES[op]: {
                    counting.TYPE_NAMES[t]: cells[op][t] for t in (1, 2, 3)
                }
                for op in counting.OPS
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"n={args.n} ops={ops}")
        print(f"identity-distinct expressions: {identity_count}")
        print(f"classes up to relabeling:      {orbit_count}")
        header = "        " + "".join(op.rjust(8) for op in counting.OPS)
        print(header)
        for t in (1, 2, 3):
            row = counting.TYPE_NAMES[t].ljust(8)
            row += "".join(str(cells[op][t]).rjust(8) for op in counting.OPS)
            print(row)
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    if not 1 <= args.max_n <= ORACLE_DEFAULT_MAX_N:
        raise InputError(f"--max-n must be within 1..{ORACLE_DEFAULT_MAX_N}")
    report = oracle.verify(args.max_n, ops=args.ops, seed=args.seed)
    for line in report.lines():
        print(line)
    if report.ok:
        print("verification passed")
        return 0
    print("verification FAILED")
    return 1


# -- solve --------------------------------------------------------------------


# exponent notation as Fraction reads it: digits, fraction, exponent sign and digits
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)(\d*)(?:\.(\d*))?[eE]([-+]?)(\d+)\s*", re.ASCII)


def _rational(text: str, option: str) -> Fraction:
    limit = sys.get_int_max_str_digits()  # int() and str() convert no more digits; 0: none
    too_long = f"{option} value has more than {limit} digits"
    # Fraction builds 10**E before any check can see it, so the text decides
    # first: a zero significand is 0, and D * 10**S, D of d digits, has a
    # numerator of over S digits and a denominator of over -S - d
    match = _EXPONENT.fullmatch(text)
    if match and not 0 < limit < max(map(len, match.groups(""))):
        digits, fraction, sign, exponent = match.groups("")
        significant = (digits + fraction).lstrip("0")
        if not significant:
            return Fraction(0)
        scale = int(sign + exponent) - len(fraction)
        if 0 < limit and (scale >= limit or -scale - len(significant) >= limit):
            raise InputError(too_long)
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        hint = "; write 'inf' for infinity" if option == "--target" else ""
        raise InputError(f"{option} value {text.strip()!r} divides by zero{hint}") from None
    except ValueError:
        if 0 < limit < sum(ch.isdigit() for ch in text):
            raise InputError(too_long) from None
        raise InputError(f"{option} value {text.strip()!r} is not a rational number") from None
    # what the text left open, such as 99e4299 (4301 digits), is checked whole
    if 0 < limit and max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise InputError(too_long)
    return value


def cmd_solve(args) -> int:
    numbers = [_rational(part, "--numbers") for part in args.numbers.split(",")]
    target = INF if args.target.strip() in ("inf", "oo") else _rational(args.target, "--target")
    query = solver.make_query(
        numbers, target, want_all=args.all, max_solutions=args.max_solutions
    )
    solutions = solver.solve(query)
    classes = solver.class_uniqueness(solutions)
    if args.json:
        payload = {
            "numbers": [str(x) for x in numbers],
            "target": fmt(target),
            "classes": classes,
            "solutions": [s.to_dict() for s in solutions],
        }
        print(json.dumps(payload, indent=2))
        return 0
    if not solutions:
        print("no solutions")
        print("classes: 0")
        return 0
    for sol in solutions:
        print(f"{sol.expr_text()} = {fmt(sol.value)}")
    print(f"classes: {classes}")
    return 0


# -- classify -----------------------------------------------------------------


def cmd_classify(args) -> int:
    # both parse, within the bounds, before either expands
    tree = parse_expr(args.expr)
    other = None if args.against is None else parse_expr(args.against)
    form = to_canon(tree)
    relabeled = False
    work = form
    n = len(form.varset)
    if form.varset != frozenset(range(1, n + 1)):
        work = canon.relabel_contiguous(form)
        relabeled = True
    endop = typeclass = None
    if n <= ORACLE_DEFAULT_MAX_N:
        cls = oracle.generate(n).entry_of(work).cls
        endop, typeclass = cls.endop, cls.typeclass
    iso = None
    if other is not None:
        other_work = canon.relabel_contiguous(to_canon(other))
        iso = canon.is_isomorphic(work, other_work) is not None
    if args.json:
        payload = {
            "expr": pretty(tree),
            "canonical": canon.form_str(form),
            "variables": sorted(form.varset),
            "monic": canon.is_monic_form(form),
            "relabeled": relabeled,
            "endop": endop,
            "type": typeclass,
            "isomorphic_to_against": iso,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"expression: {pretty(tree)}")
    print(f"canonical:  {canon.form_str(form)}")
    print(f"variables:  {sorted(form.varset)}")
    print(f"monic:      {'yes' if canon.is_monic_form(form) else 'no'}")
    if relabeled:
        print(f"relabeled:  {canon.form_str(work)} (for classification)")
    if endop is not None:
        print(f"ends with:  {endop}")
        print(f"type:       {typeclass}")
    else:
        print(f"ends with:  (classification available up to {ORACLE_DEFAULT_MAX_N} variables)")
    if iso is not None:
        print(f"isomorphic to --against: {'yes' if iso else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
