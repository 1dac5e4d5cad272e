"""Target-number puzzles: find expressions over given numbers hitting a target.

The search space is the exhaustively generated universe on {x1..xn} with
the fixed assignment x_i = numbers[i-1].  The universe contains every
arrangement of the variables, so one fixed assignment covers all orderings
of the input numbers (duplicates included).  Hits are grouped into
isomorphism classes by orbit key.

Each form is evaluated once, bottom-up through its first recorded
decomposition (its witness tree), as an integer pair (N, D): an atom
x_i = p/q is (p, q), and pairs combine by the cross-multiplication rules of
``canon.combine``.  combine only flips signs, so (N, D) = c * (num(x),
den(x)) with c plus or minus the product of the numbers' denominators,
and the hit test is exact: a finite target p/q is hit iff D != 0 and
N*q = D*p, inf (as 1/0) iff D = 0 != N, and N = D = 0 is undefined --
what ``canon.eval_form`` gives.
A point where the witness tree is undefined but the reduced form is
defined counts as a domain extension and is flagged rather than silently
kept or dropped.

What depends only on the family is done once per family and kept on it.
The first solve with n numbers compiles the witness trees of the forms on
{1..n} into a program of integer steps, ``Family._programs[n]``: 33 737
steps in about 0.6 MB at n = 5, 974 860 steps in about 18 MB at n = 6.
The first hit of a class records the class on every stored member, as
``oracle.compute_orbits`` does (``Family.class_key``); recording all 500
classes at n = 5 adds about 0.85 MB, mostly cached polynomial text.  A
puzzle then runs one loop over plain ints, and keeps only the set of class
keys it has seen.  The first puzzle on a family costs about what a solve
without this state does.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from . import oracle
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


class _Program:
    """The witness trees of the forms on {1..n}, compiled to integer steps.

    Step i gives the (N, D) pair of one form: op[i] is "x" for the atom
    x_left[i], else the operator applied to the pairs of steps left[i] and
    right[i].  The first `proper` steps are the forms of the proper subsets
    of {1..n}, in generation order, so operands precede their uses; the
    rest are the full-level forms, entries[i - proper], which are never
    operands.
    """

    __slots__ = ("op", "left", "right", "proper", "entries")

    def __init__(self, family: oracle.Family, n: int):
        full = frozenset(range(1, n + 1))
        proper = [
            entry
            for varset, aeset in family.sets.items()
            if varset < full
            for entry in aeset.entries.values()
        ]
        position = {entry.form: i for i, entry in enumerate(proper)}
        self.proper = len(proper)
        self.entries = list(family.sets[full].entries.values())
        ops: list = []
        self.left = array("i")
        self.right = array("i")
        for entry in chain(proper, self.entries):
            if entry.decomps:
                op, fa, fb = entry.decomps[0]
                ops.append(op)
                self.left.append(position[fa])
                self.right.append(position[fb])
            else:
                ops.append("x")
                self.left.append(next(iter(entry.form.varset)))
                self.right.append(0)
        self.op = "".join(ops)

    def hits(self, numbers: tuple, target: ProjValue) -> list:
        """The full-level entries whose form takes the target at the point
        x_i = numbers[i-1], in generation order."""
        tp, tq = (1, 0) if target is INF else (target.numerator, target.denominator)
        entries = self.entries
        Ns: list = []  # (N, D) of the proper steps
        Ds: list = []
        found = []
        # i < 0 on the proper steps, else the step's index in entries;
        # operators in falling order of frequency
        steps = zip(range(-self.proper, len(entries)), self.op, self.left, self.right)
        for i, op, a, b in steps:
            if op == "/":
                N, D = Ns[a] * Ds[b], Ds[a] * Ns[b]
            elif op == "-":
                N, D = Ns[a] * Ds[b] - Ds[a] * Ns[b], Ds[a] * Ds[b]
            elif op == "*":
                N, D = Ns[a] * Ns[b], Ds[a] * Ds[b]
            elif op == "+":
                N, D = Ns[a] * Ds[b] + Ds[a] * Ns[b], Ds[a] * Ds[b]
            else:
                x = numbers[a - 1]
                N, D = x.numerator, x.denominator
            if i < 0:
                Ns.append(N)
                Ds.append(D)
            # N:D = tp:tq as points of the projective line; 0:0 is undefined
            elif N * tq == D * tp and (N or D):
                found.append(entries[i])
        return found


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
    program = family._programs.get(n)
    if program is None:
        program = family._programs[n] = _Program(family, n)
    assignment = {i + 1: query.numbers[i] for i in range(n)}
    seen: set = set()  # class keys of the solutions so far
    solutions: list = []
    for entry in program.hits(query.numbers, query.target):
        if query.max_solutions is not None and len(solutions) >= query.max_solutions:
            break
        key = family.class_key(entry.form)
        if key not in seen:
            seen.add(key)
        elif not query.want_all:
            continue
        witness = family.witness(entry.form)
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
