"""Target-number puzzles: find expressions over given numbers hitting a target.

The search space is the exhaustively generated universe on {x1..xn} with
the fixed assignment x_i = numbers[i-1].  The universe contains every
arrangement of the variables, so one fixed assignment covers all orderings
of the input numbers (duplicates included).  Hits are grouped into
isomorphism classes by orbit key.

Each canonical form is evaluated as a reduced quotient; a point where the
original syntax tree is undefined but the reduced form is defined counts
as a domain extension and is flagged rather than silently kept or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import canon, oracle
from .exprtree import ExprTree, eval_tree, pretty
from .projrat import INF, UNDEFINED, EvalResult, ProjValue, fmt

MAX_NUMBERS = 6


class TooManyNumbers(ValueError):
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
    if not 1 <= len(nums) <= MAX_NUMBERS:
        raise TooManyNumbers(f"need 1..{MAX_NUMBERS} numbers, got {len(nums)}")
    tgt = INF if target is INF else Fraction(target)
    if max_solutions is not None and max_solutions < 0:
        raise ValueError(f"max_solutions must be nonnegative, got {max_solutions}")
    return PuzzleQuery(nums, tgt, want_all, max_solutions)


def solve(query: PuzzleQuery, family: Optional[oracle.Family] = None) -> list:
    """All solutions, one witness per isomorphism class unless want_all.

    Solutions come out in deterministic generation order, grouped by class
    key first appearance.
    """
    n = len(query.numbers)
    if family is None:
        family = oracle.generate(n)
    assignment = {i + 1: query.numbers[i] for i in range(n)}
    aeset = family.full_set(n)
    hits = []
    for form in aeset.entries:
        value = canon.eval_form(form, assignment)
        if value is UNDEFINED or value != query.target:
            continue
        hits.append(form)
    solutions: list = []
    seen_classes: dict = {}
    for form in hits:
        if query.max_solutions is not None and len(solutions) >= query.max_solutions:
            break
        key = canon.orbit_key(form)
        if not query.want_all and key in seen_classes:
            continue
        seen_classes.setdefault(key, 0)
        seen_classes[key] += 1
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
