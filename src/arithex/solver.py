"""Target-number puzzles: find expressions over given numbers hitting a target.

The search space is the exhaustively generated universe on {x1..xn} with
the fixed assignment x_i = numbers[i-1].  The universe contains every
arrangement of the variables, so one fixed assignment covers all orderings
of the input numbers (duplicates included).  Hits are grouped into
isomorphism classes by orbit key.

Each form of a proper subset of {1..n} is evaluated once, bottom-up
through its recorded decomposition (its witness tree), as an
integer pair (N, D): an atom x_i = p/q is (p, q), and pairs combine by the
cross-multiplication rules of ``canon.combine``.  combine only flips
signs, so (N, D) = c * (num(x), den(x)) with c plus or minus the product
of the numbers' denominators, and the hit test is exact: a finite target
p/q is hit iff D != 0 and N*q = D*p, inf (as 1/0) iff D = 0 != N, and
N = D = 0 is undefined -- what ``canon.eval_form`` gives.
A witness tree is undefined exactly where its pair is 0:0, so exactly where
its reduced form is, and a hit is never a domain extension: the
``extension`` flag every solution carries (the JSON schema requires it)
is always false, and no witness tree is evaluated to set it.

The forms on all of {1..n}, which are never operands, are not evaluated
one by one.  Each is a op b, its recorded decomposition, with a and b on
complementary variable sets; given a, the hit test is linear in b's pair
(x, y), c1*x + c2*y = 0, so b must be the point -c2:c1.  The forms are
grouped by operator and by the operand on the side with fewer forms;
each group computes that point once and looks it up among the keys of the
other side's values (N / D as a float, which int division rounds
correctly, so equal points share a key; "inf" for D = 0; the reduced pair
if the float overflows).  Only the forms found take the exact test.

What depends only on the family is done once per family and kept on it.
The first solve with n numbers compiles the witness trees of the forms on
{1..n} into a program, ``Family._programs[n]``: 6 595 steps and 294
groups in about 0.5 MB at n = 5, 181 858 steps and 2 306 groups in about
15 MB at n = 6.
The first hit of a class records the class on every stored member, as
``oracle.compute_orbits`` does (``Family.class_key``); recording all 500
classes at n = 5 adds about 0.85 MB, mostly cached polynomial text.  A
puzzle then runs one loop over plain ints and one lookup per group, and
keeps only the set of class keys it has seen.  The first puzzles on a
family pay for this state, and keying their classes is most of their
cost.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from . import oracle
from .errors import InputError
# solve evaluates no tree; eval_tree stays bound because perfbench/tracer.py
# wraps solver.eval_tree
from .exprtree import ExprTree, eval_tree, pretty
from .projrat import INF, EvalResult, ProjValue, fmt


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
    extension: bool         # tree undefined at a hit: never, kept for the schema

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
    """The witness trees of the forms on {1..n}, compiled for a lookup by
    the last operation.

    Step i gives the (N, D) pair of one form of a proper subset of
    {1..n}: op[i] is "x" for the atom x_left[i], else the operator applied
    to the pairs of steps left[i] and right[i].  Steps come in generation
    order: operands precede their uses, and the forms of one subset hold
    consecutive steps.  The full-level forms, entries[k], are never
    operands and take no step; each is held by the group of its first
    decomposition.  A group (op, small_left, small, lo, slots) is one
    operator and one operand, small, the one with the lower step index, so
    on the side with fewer forms; slots[j] is the k of the member whose
    other operand is step lo + j, else -1.  At n = 1 the one form, x1, has
    no decomposition: it takes a step, and a group "x" of its own.
    """

    __slots__ = ("op", "left", "right", "groups", "entries")

    def __init__(self, family: oracle.Family, n: int):
        full = frozenset(range(1, n + 1))
        proper: list = []
        first: dict = {}  # varset -> the step of its first form
        for varset, aeset in family.sets.items():
            if varset < full:
                first[varset] = len(proper)
                proper += aeset.entries.values()
        # keyed by identity: the family holds every form while this runs
        position = {id(entry.form): i for i, entry in enumerate(proper)}
        self.entries = list(family.sets[full].entries.values())
        ops: list = []
        self.left = array("i")
        self.right = array("i")
        for entry in proper:
            if entry.decomp:
                op, fa, fb = entry.decomp
                ops.append(op)
                self.left.append(position[id(fa)])
                self.right.append(position[id(fb)])
            else:
                ops.append("x")
                self.left.append(next(iter(entry.form.varset)))
                self.right.append(0)
        # a small operand lies on at most n/2 variables, so its step is
        # below few; rows[op] holds two lists over those steps, for the
        # small operand right and left, of groups (lo, slots)
        few = sum(len(family.sets[varset].entries) for varset in first if 2 * len(varset) <= n)
        rows = {op: ([None] * few, [None] * few) for op in family.ops}
        for k, entry in enumerate(self.entries if n > 1 else ()):
            op, fa, fb = entry.decomp
            a, b = position[id(fa)], position[id(fb)]
            if a < b:
                row, small, other = rows[op][1], a, b
            else:
                row, small, other = rows[op][0], b, a
            group = row[small]
            if group is None:
                varset = (fb if a < b else fa).varset
                size = len(family.sets[varset].entries)
                group = row[small] = (first[varset], array("i", [-1]) * size)
            group[1][other - group[0]] = k
        self.groups = [
            (op, small_left, small) + group
            for op, sides in rows.items()
            for small_left, row in zip((False, True), sides)
            for small, group in enumerate(row)
            if group is not None
        ]
        if n == 1:  # x1 has no decomposition: "x" on a step of its own
            ops.append("x")
            self.left.append(1)
            self.right.append(0)
            self.groups.append(("x", False, 0, 0, array("i", [0])))
        self.op = "".join(ops)

    def hits(self, numbers: tuple, target: ProjValue) -> list:
        """The full-level entries whose form takes the target at the point
        x_i = numbers[i-1], in generation order."""
        tp, tq = (1, 0) if target is INF else (target.numerator, target.denominator)
        Ns: list = []  # (N, D) of the steps
        Ds: list = []
        # operators in falling order of frequency
        for op, a, b in zip(self.op, self.left, self.right):
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
            Ns.append(N)
            Ds.append(D)
        keys = list(map(_point_key, Ns, Ds))
        found = []
        for op, small_left, s, lo, slots in self.groups:
            # a member's pair is linear in its other operand's (x, y):
            # N = al*x + be*y, D = ga*x + de*y, (p, q) the small operand's
            p, q = Ns[s], Ds[s]
            if op == "/":
                al, be, ga, de = (0, p, q, 0) if small_left else (q, 0, 0, p)
            elif op == "-":
                al, be, ga, de = (-q, p, 0, q) if small_left else (q, -p, 0, q)
            elif op == "*":
                al, be, ga, de = p, 0, 0, q
            elif op == "+":
                al, be, ga, de = q, p, 0, q
            else:
                al, be, ga, de = 1, 0, 0, 1
            # a hit needs N*tq = D*tp, that is c1*x + c2*y = 0: the other
            # operand is the point -c2:c1, or anything if c1 = c2 = 0
            c1, c2 = al * tq - ga * tp, be * tq - de * tp
            hi = lo + len(slots)
            if c1 or c2:
                need, steps, b = _point_key(-c2, c1), [], lo
                try:
                    while True:
                        b = keys.index(need, b, hi)
                        steps.append(b)
                        b += 1
                except ValueError:
                    pass
            else:
                steps = range(lo, hi)
            for b in steps:
                k = slots[b - lo]
                x, y = Ns[b], Ds[b]
                # keys of unequal points may be equal; 0:0 is undefined
                if k >= 0 and c1 * x + c2 * y == 0 and (al * x + be * y or ga * x + de * y):
                    found.append(k)
        entries = self.entries
        return [entries[k] for k in sorted(found)]


def _point_key(N: int, D: int):
    """A key of the point N:D of the projective line: equal points get
    equal keys, and unequal ones may share one.  N / D is correctly
    rounded, so equal ratios give one float; a ratio too large for a float
    keys by its reduced pair.  0:0, which is no point, keys as inf."""
    if not D:
        return "inf"
    try:
        return N / D
    except OverflowError:
        g = gcd(N, D) if D > 0 else -gcd(N, D)
        return N // g, D // g


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
        solutions.append(
            Solution(
                witness=family.witness(entry.form),
                assignment=assignment,
                value=query.target,
                class_key=key,
                extension=False,
            )
        )
    return solutions


def class_uniqueness(solutions: list) -> int:
    """Number of distinct isomorphism classes among the solutions."""
    return len({s.class_key for s in solutions})
