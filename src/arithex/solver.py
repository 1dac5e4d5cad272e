"""Target-number puzzles: find expressions over given numbers hitting a target.

The search space is the exhaustively generated universe on {x1..xn} with
the fixed assignment x_i = numbers[i-1].  The universe contains every
arrangement of the variables, so one fixed assignment covers all orderings
of the input numbers (duplicates included).  Hits are grouped into
isomorphism classes by orbit key.

Each form is evaluated once, bottom-up through its first recorded
decomposition (its witness tree), as an integer pair (N, D): an atom
x_i = p/q is (p, q), and pairs combine by the cross-multiplication rules of
``canon.combine``.  combine only divides out content and flips signs, so
(N, D) = lambda * (num(x), den(x)) for some nonzero lambda, and the hit
test is exact: a finite target p/q is hit iff D != 0 and N*q = D*p, inf
(as 1/0) iff D = 0 != N, and N = D = 0 is undefined -- what
``canon.eval_form`` gives.
A point where the witness tree is undefined but the reduced form is
defined counts as a domain extension and is flagged rather than silently
kept or dropped.

Each hit class is keyed once: the first hit of a class takes the orbit of
its form, and every hit in that orbit shares the key.  The orbits of one
solve share one ``canon.relabelings`` list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import canon, oracle
from .errors import InputError
from .exprtree import ExprTree, eval_tree, pretty
from .projrat import INF, UNDEFINED, EvalResult, ProjValue, fmt


class TooManyNumbers(InputError):
    """Puzzle size beyond the exhaustive-search limit."""


@dataclass(frozen=True)
class PuzzleQuery:
    numbers: tuple          # Fractions, one per variable
    target: ProjValue       # finite rational or INF
    want_all: bool = False
    max_solutions: Optional[int] = None


@dataclass
class Solution:
    witness: ExprTree
    assignment: dict        # variable index -> Fraction
    value: EvalResult
    class_key: str
    extension: bool         # reduced form defined where the tree is not

    def expr_text(self) -> str:
        return pretty(self.witness)

    def to_dict(self) -> dict:
        return {
            "expr": self.expr_text(),
            "numbers": [str(self.assignment[i]) for i in sorted(self.assignment)],
            "value": fmt(self.value),
            "class": self.class_key,
            "extension": self.extension,
        }


def make_query(
    numbers,
    target,
    want_all: bool = False,
    max_solutions: Optional[int] = None,
) -> PuzzleQuery:
    nums = tuple(Fraction(x) for x in numbers)
    if not 1 <= len(nums) <= oracle.MAX_N:
        raise TooManyNumbers(f"need 1..{oracle.MAX_N} numbers, got {len(nums)}")
    tgt = INF if target is INF else Fraction(target)
    if max_solutions is not None and max_solutions < 0:
        raise InputError(f"max_solutions must be nonnegative, got {max_solutions}")
    return PuzzleQuery(nums, tgt, want_all, max_solutions)


def _pair(entry: oracle.AEntry, pairs: dict, numbers: tuple) -> tuple:
    """(N, D) of an entry at the puzzle point, from its operands' pairs."""
    if not entry.decomps:
        x = numbers[next(iter(entry.form.varset)) - 1]
        return x.numerator, x.denominator
    op, fa, fb = entry.decomps[0]
    n1, d1 = pairs[fa]
    n2, d2 = pairs[fb]
    if op == "+":
        return n1 * d2 + d1 * n2, d1 * d2
    if op == "-":
        return n1 * d2 - d1 * n2, d1 * d2
    if op == "*":
        return n1 * n2, d1 * d2
    return n1 * d2, d1 * n2


def solve(query: PuzzleQuery, family: Optional[oracle.Family] = None) -> list:
    """All solutions, one witness per isomorphism class unless want_all.

    Solutions come out in deterministic generation order, grouped by class
    key first appearance.  A given family must cover at least as many
    variables as there are numbers.
    """
    n = len(query.numbers)
    if family is None:
        family = oracle.generate(n)
    elif family.n < n:
        raise ValueError(f"family on {family.n} variables cannot solve {n} numbers")
    full = frozenset(range(1, n + 1))
    pairs: dict = {}  # form of a proper subset of full -> (N, D)
    for varset, aeset in family.sets.items():
        if varset < full:
            for form, entry in aeset.entries.items():
                pairs[form] = _pair(entry, pairs, query.numbers)
    target = query.target
    tp, tq = (1, 0) if target is INF else (target.numerator, target.denominator)
    hits = []
    for form, entry in family.sets[full].entries.items():
        N, D = _pair(entry, pairs, query.numbers)
        # N:D = tp:tq as points of the projective line; 0:0 is undefined
        if N * tq == D * tp and (N or D):
            hits.append(form)
    assignment = {i + 1: query.numbers[i] for i in range(n)}
    relabels = canon.relabelings(n)
    key_of = dict.fromkeys(hits)  # hit form -> class key, once its class is seen
    solutions: list = []
    for form in hits:
        if query.max_solutions is not None and len(solutions) >= query.max_solutions:
            break
        key = key_of[form]
        if key is None:
            members = canon.orbit(form, relabels)
            key = canon.orbit_key(form, members)
            for g in members:
                if g in key_of:
                    key_of[g] = key
        elif not query.want_all:
            continue
        witness = family.witness(form)
        tree_value = eval_tree(witness, assignment)
        solutions.append(
            Solution(
                witness=witness,
                assignment=assignment,
                value=query.target,
                class_key=key,
                extension=tree_value is UNDEFINED,
            )
        )
    return solutions


def class_uniqueness(solutions: list) -> int:
    """Number of distinct isomorphism classes among the solutions."""
    return len({s.class_key for s in solutions})
