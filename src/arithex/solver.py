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
grouped by operator and by the operand on the side with fewer forms, and
each group computes that point once.  The groups are kept by the subset
whose forms they look up, the other side's (15 subsets at n = 5, 31 at
n = 6): a puzzle gathers in one dict the points that the groups of a
subset need and passes once over the keys of that subset's values (N / D
as a float, which int division rounds correctly, so equal points share a
key; "inf" for D = 0; the reduced pair if the float overflows), a hash
semi-join.  A puzzle so compares 6 530 keys at n = 5 and 181 082 at
n = 6, where one pass per group compared 53 052 and 1 583 292.  Only the
forms found take the exact test.

What depends only on the family is done once per family and kept on it.
The first solve with n numbers compiles the witness trees of the forms on
{1..n} into a program, ``Family._programs[n]``, by following each stored
form's operand records.  Its steps come subset by subset in generation
order and, within a subset, by operator, so they fall into runs of one
operator, ``_Program.runs``, and a puzzle evaluates each run in a loop of
its own, with no test of the operator per step: 6 595 steps in 101 runs
and 294 groups in about 0.60 MB at n = 5, beside a family of about
7.5 MB, and 181 858 steps in 225 runs and 2 306 groups in about 16.8 MB
at n = 6, beside about 214 MB.
The first hit of a class keys it, as ``oracle.compute_orbits`` keys a
level, and writes only its key (``Family.class_key``, called for every
solution): the build has already classed the members, so this groups the
set by class once, takes the least text of the class's members and
relabels nothing.  Keying all 500 classes at n = 5 adds about 0.76 MB
(by tracemalloc), the level grouped by class and cached polynomial text.
A puzzle then runs one loop per run over plain ints and one pass per
subset looked up, and keeps only the set of the classes it has seen, by id:
unless all witnesses are wanted, a hit of a class seen before is skipped
before any keying or lookup by form.  The first puzzles on a family pay for this
state: on a fresh n = 5 family with the program compiled, the
projective puzzle 0, 1, 3, 10, 8 -> inf (251 classes) took 19-39 ms in
process, 14-30 ms of it keying its classes, after a compile of 12-26 ms
(2-vCPU Xeon, Python 3.11, on a host whose speed swings about twofold).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, groupby, islice
from math import gcd
from operator import attrgetter
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
    {1..n}: the atom x_left[i], or an operator applied to the pairs of
    steps left[i] and right[i].  The forms of one subset hold consecutive
    steps, the subsets in generation order, so operands precede their
    uses; within a subset the steps are sorted by operator, a singleton's
    one step being its atom.  runs holds (op, count) for each run of
    consecutive steps with one operator, "x" for atoms, so a puzzle runs
    one loop per run with no test of the operator per step.  The
    full-level forms, entries[k], are never operands and take no step;
    each is held by the group of its first decomposition.  A group (op,
    small_left, small, slots) is one operator and one operand, small, the
    one with the lower step index, so on the side with fewer forms.
    ranges holds one (lo, hi, groups) per subset that groups look up: its
    forms are steps lo..hi-1, and slots[j] is the k of the member whose
    other operand is step lo + j, else -1.  At n = 1 the one form, x1,
    has no decomposition: it takes a step, and a range with a group "x"
    of its own.
    """

    __slots__ = ("runs", "left", "right", "ranges", "entries")

    def __init__(self, family: oracle.Family, n: int):
        full = frozenset(range(1, n + 1))
        proper: list = []
        first: dict = {}  # varset -> the step of its first form
        for varset, aeset in family.sets.items():
            if varset < full:
                first[varset] = len(proper)
                # a singleton holds only its atom, whose op None is never compared
                proper += sorted(aeset.entries.values(), key=attrgetter("op"))
        # keyed by identity: operands are stored records, all held by the family
        position = {id(entry): i for i, entry in enumerate(proper)}
        self.entries = list(family.sets[full].entries.values())
        ops: list = []
        self.left: list = []
        self.right: list = []
        for entry in proper:
            if entry.op:
                ops.append(entry.op)
                self.left.append(position[id(entry.left)])
                self.right.append(position[id(entry.right)])
            else:
                ops.append("x")
                self.left.append(next(iter(entry.varset)))
                self.right.append(0)
        # a small operand lies on at most n/2 variables, so its step is
        # below few; rows[op] holds two lists over those steps, for the
        # small operand right and left, of groups (lo, slots)
        few = sum(len(family.sets[varset].entries) for varset in first if 2 * len(varset) <= n)
        rows = {op: ([None] * few, [None] * few) for op in family.ops}
        ranges: dict = {}  # lo -> (lo, hi, the groups that look up lo..hi-1)
        for k, entry in enumerate(self.entries if n > 1 else ()):
            op, fa, fb = entry.op, entry.left, entry.right
            a, b = position[id(fa)], position[id(fb)]
            if a < b:
                row, small, other = rows[op][1], a, b
            else:
                row, small, other = rows[op][0], b, a
            group = row[small]
            if group is None:
                varset = (fb if a < b else fa).varset
                lo, size = first[varset], len(family.sets[varset].entries)
                group = row[small] = (lo, array("i", [-1]) * size)
                ranges.setdefault(lo, (lo, lo + size, []))[2].append((op, a < b, small, group[1]))
            group[1][other - group[0]] = k
        self.ranges = list(ranges.values())
        if n == 1:  # x1 has no decomposition: "x" on a step of its own
            ops.append("x")
            self.left.append(1)
            self.right.append(0)
            self.ranges.append((0, 1, [("x", False, 0, array("i", [0]))]))
        self.runs = [(op, len(list(run))) for op, run in groupby(ops)]

    def hits(self, numbers: tuple, target: ProjValue) -> list:
        """The full-level entries whose form takes the target at the point
        x_i = numbers[i-1], in generation order."""
        tp, tq = (1, 0) if target is INF else (target.numerator, target.denominator)
        Ns: list = []  # (N, D) of the steps
        Ds: list = []
        keys: list = []  # the point key of each step: _point_key(N, D), inlined per operator
        steps = zip(self.left, self.right)
        for op, count in self.runs:
            run = islice(steps, count)
            if op == "/":
                for a, b in run:
                    N, D = Ns[a] * Ds[b], Ds[a] * Ns[b]
                    Ns.append(N)
                    Ds.append(D)
                    try:
                        keys.append(N / D if D else "inf")
                    except OverflowError:
                        keys.append(_point_key(N, D))
            elif op == "-":
                for a, b in run:
                    N, D = Ns[a] * Ds[b] - Ds[a] * Ns[b], Ds[a] * Ds[b]
                    Ns.append(N)
                    Ds.append(D)
                    try:
                        keys.append(N / D if D else "inf")
                    except OverflowError:
                        keys.append(_point_key(N, D))
            elif op == "*":
                for a, b in run:
                    N, D = Ns[a] * Ns[b], Ds[a] * Ds[b]
                    Ns.append(N)
                    Ds.append(D)
                    try:
                        keys.append(N / D if D else "inf")
                    except OverflowError:
                        keys.append(_point_key(N, D))
            elif op == "+":
                for a, b in run:
                    N, D = Ns[a] * Ds[b] + Ds[a] * Ns[b], Ds[a] * Ds[b]
                    Ns.append(N)
                    Ds.append(D)
                    try:
                        keys.append(N / D if D else "inf")
                    except OverflowError:
                        keys.append(_point_key(N, D))
            else:
                for a, _ in run:
                    x = numbers[a - 1]
                    Ns.append(x.numerator)
                    Ds.append(x.denominator)
                    keys.append(_point_key(x.numerator, x.denominator))
        found = []
        for lo, hi, groups in self.ranges:
            needs: dict = {}  # point key -> the tests of the groups that need it
            every: list = []  # the tests of the groups that take any point
            for op, small_left, s, slots in groups:
                # a member's pair is linear in its other operand's (x, y):
                # N = al*x + be*y, D = ga*x + de*y, (p, q) the small operand's;
                # a hit needs N*tq = D*tp, that is c1*x + c2*y = 0 with
                # c1 = al*tq - ga*tp and c2 = be*tq - de*tp
                p, q = Ns[s], Ds[s]
                if op == "/":
                    if small_left:
                        al, be, ga, de, c1, c2 = 0, p, q, 0, -q * tp, p * tq
                    else:
                        al, be, ga, de, c1, c2 = q, 0, 0, p, q * tq, -p * tp
                elif op == "-":
                    if small_left:
                        al, be, ga, de, c1, c2 = -q, p, 0, q, -q * tq, p * tq - q * tp
                    else:
                        al, be, ga, de, c1, c2 = q, -p, 0, q, q * tq, -p * tq - q * tp
                elif op == "*":
                    al, be, ga, de, c1, c2 = p, 0, 0, q, p * tq, -q * tp
                elif op == "+":
                    al, be, ga, de, c1, c2 = q, p, 0, q, q * tq, p * tq - q * tp
                else:
                    al, be, ga, de, c1, c2 = 1, 0, 0, 1, tq, -tp
                # the other operand is the point -c2:c1, or anything if c1 = c2 = 0
                test = (c1, c2, al, be, ga, de, slots)
                if c1 or c2:
                    needs.setdefault(_point_key(-c2, c1), []).append(test)
                else:
                    every.append(test)
            # one pass over the range's keys finds the steps any group needs
            wanted = compress(range(lo, hi), map(needs.__contains__, keys[lo:hi]))
            steps = [(b, needs[keys[b]]) for b in wanted]
            if every:
                steps += [(b, every) for b in range(lo, hi)]
            for b, tests in steps:
                x, y = Ns[b], Ds[b]
                for c1, c2, al, be, ga, de, slots in tests:
                    k = slots[b - lo]
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

    Solutions come out in the generation order of the full-size forms that
    hit, so with want_all the classes interleave; without it each class
    gives one solution, its first hit.  A given family must cover at least
    as many variables as there are numbers.
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
    seen: set = set()  # ids of the classes of the solutions so far
    solutions: list = []
    for entry in program.hits(query.numbers, query.target):
        if query.max_solutions is not None and len(solutions) >= query.max_solutions:
            break
        cls = entry.cls
        if id(cls) not in seen:
            seen.add(id(cls))
        elif not query.want_all:
            continue
        solutions.append(
            Solution(
                witness=family.witness(entry),
                assignment=assignment,
                value=query.target,
                class_key=family.class_key(entry),
                extension=False,
            )
        )
    return solutions


def class_uniqueness(solutions: list) -> int:
    """Number of distinct isomorphism classes among the solutions."""
    return len({s.class_key for s in solutions})
