"""Class-count engine: the twelve categories by ending operator and type.

Every expression class ends with exactly one operator and falls in exactly
one of three types (1: the negation is not constructible, 2: constructible
but not isomorphic, 3: self-negative).  Classes at size n decompose
uniquely into smaller classes, which turns the per-category counts into
recurrences over multisets of smaller categories:

* ``+`` classes are multisets of *- or /-ending summand classes drawn per a
  non-trivial partition of n (colored-weights count).  Self-negative sums
  additionally pair a monic second-type pool against itself.
* ``-`` classes are a difference of a class and a first-type class on a
  smaller size; self-negative ones take the shape g + h - h.
* ``*`` classes are multisets of +-ending factors, possibly times bare
  variables; second-type products carry a global sign choice over monic
  second-type factors.
* ``/`` classes convolve numerator and denominator pools, with sign choices
  mirroring the product case.

Monic second-type pools are always half the second-type count; the halving
asserts evenness first.  All arithmetic is unbounded.

Each pool's count at size k is taken once, when level k is complete.  The
multiset counts over the seven pools that feed ``+`` and ``*`` cells come
from one ``EulerSeries`` per pool, extended once per level, so a table to
n_max costs O(n_max^2) integer steps per pool and enumerates no partition.
Only ``worked_breakdown`` lists partitions, for the one cell it traces.

Each cell is described once, by ``_cell_terms``, as a few blocks
``(kind, keys, factors, values)`` of summands.  A convolution block pairs
k with n - k or n - 2k, so its factor columns are slices of the pool lists
and of ``EulerSeries.weighings``, reversed (``[n-1:0:-1]``) or with step
-2 (``[n-2::-2]``), and its values are their products, ``map(mul, a, b)``.
The fill sums each block in C with ``sum`` and builds no tuple per
summand; ``worked_breakdown`` expands the same blocks into ``Term`` rows,
with every multiset count summed over partitions instead of read from a
series, so it cross-checks the fill.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import mul
from typing import Iterable

from .errors import InputError
from .partitions import (  # count_weighings is re-exported
    EulerSeries,
    count_weighings,
    from_prefix,
    weighing_terms,
)

OPS = ("+", "-", "*", "/")

# largest cell size a breakdown may trace: it lists up to p(n) partition
# terms (p(40) = 37338), and on a 2-vCPU Xeon under Python 3.11 the
# costliest cell takes about 3 s and 54 MB at n = 40, against 10 s and
# 106 MB at n = 45 and 168 MB at n = 50
BREAKDOWN_MAX_N = 40

# largest table a count may fill: the fill takes O(n^2) steps on integers
# of O(n) digits, and on a 2-vCPU Xeon under Python 3.11 `count --max-n`
# takes about 0.7 s and 26 MB peak RSS at n = 500, 7 s and 49 MB at
# n = 1000; every level is allocated up front
COUNT_MAX_N = 1000

OP_NAMES = {"+": "plus", "-": "minus", "*": "times", "/": "div"}
TYPE_NAMES = {1: "first", 2: "second", 3: "third"}

# within a level, second-type cells of + and - depend on the sibling cells
_CELL_ORDER = (
    ("+", 1), ("+", 3), ("+", 2),
    ("-", 1), ("-", 3), ("-", 2),
    ("*", 1), ("*", 2), ("*", 3),
    ("/", 1), ("/", 2), ("/", 3),
)


# Pools are named by type and ending operators: md = * or /, pm = + or -,
# p = +, pt = + or *, pmt = + - or *, ptd = + * or /; a monic pool holds
# half the second-type classes.  These seven are counted as multisets.
_SERIES = ("first_md", "third_md", "any_md", "monic_md", "monic_pm", "first_p", "third_pm")


class OddSecondTypeCount(RuntimeError):
    """A second-type count came out odd; they pair up under negation."""


@dataclass(frozen=True)
class Term:
    """One summand of a cell: partition term, convolution term, etc."""

    kind: str
    key: object
    factors: tuple
    value: int


@dataclass(frozen=True)
class Breakdown:
    n: int
    op: str
    type_: int
    terms: tuple
    total: int


class CategoryTable:
    """Per-level, per-operator, per-type class counts with derived accessors."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.cells = {
            n: {op: {1: 0, 2: 0, 3: 0} for op in OPS} for n in range(n_max + 1)
        }
        # per-level counts of the pools only convolved, and one series per
        # pool counted as multisets; both filled by class_counts
        self.pools: dict = {}
        self.series = {name: EulerSeries() for name in _SERIES}

    def cell(self, n: int, op: str, type_: int) -> int:
        return self.cells[n][op][type_]

    def cls(self, types: Iterable[int], ops: Iterable[str], n: int) -> int:
        """Count of classes of the given types ending with any of ``ops``.

        At n = 0 every class family counts 1 by convention (the empty
        expression), regardless of the operator or type selection.
        """
        if n == 0:
            return 1
        level = self.cells[n]
        total = 0
        for op in ops:
            cell = level[op]
            for t in types:
                total += cell[t]
        return total

    def monic_second(self, ops: Iterable[str], n: int) -> int:
        """Monic second-type classes: half the second-type count."""
        if n == 0:
            return 1
        b = self.cls((2,), ops, n)
        if b % 2:
            raise OddSecondTypeCount(f"second-type count {b} at n={n} over {ops}")
        return b // 2

    def total(self, n: int) -> int:
        return self.cls((1, 2, 3), OPS, n)

    # -- export ------------------------------------------------------------

    def level_dict(self, n: int) -> dict:
        out: dict = {"n": n}
        for op in OPS:
            out[OP_NAMES[op]] = {
                TYPE_NAMES[t]: self.cells[n][op][t] for t in (1, 2, 3)
            }
        out["total"] = self.total(n)
        return out

    def to_json_levels(self) -> list:
        return [self.level_dict(n) for n in range(1, self.n_max + 1)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "op", "type", "count"])
        for n in range(1, self.n_max + 1):
            for op in OPS:
                for t in (1, 2, 3):
                    writer.writerow([n, OP_NAMES[op], TYPE_NAMES[t], self.cells[n][op][t]])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for n in range(1, self.n_max + 1):
            level = self.cells[n]
            # one row per type and a total row, one column per op and a total
            rows = [[level[op][t] for op in OPS] for t in (1, 2, 3)]
            for row in rows:
                row.append(sum(row))
            rows.append([sum(column) for column in zip(*rows)])
            width = max(8, len(str(rows[-1][-1])) + 2)
            header = f"n={n}".ljust(8) + "".join([op.rjust(width) for op in OPS])
            lines.append(header + "total".rjust(width))
            for label, row in zip((*TYPE_NAMES.values(), "total"), rows):
                lines.append(label.ljust(8) + "".join([str(v).rjust(width) for v in row]))
            lines.append("")
        return "\n".join(lines)

    def totals_line(self) -> str:
        return " ".join(str(self.total(n)) for n in range(1, self.n_max + 1))


def class_counts(n_max: int) -> CategoryTable:
    """Fill the table for levels 0..n_max, n_max in 1..COUNT_MAX_N.

    Level 1 holds the bare variable (a first-type *-ending class); each
    higher level is computed cell by cell in dependency order, then closed
    into the pools the next levels draw from.
    """
    if n_max < 1:
        raise InputError("n_max must be positive")
    if n_max > COUNT_MAX_N:
        raise InputError(f"n_max must be at most {COUNT_MAX_N}")
    table = CategoryTable(n_max)
    table.cells[1]["*"][1] = 1
    _close_level(table, 0)
    _close_level(table, 1)
    for n in range(2, n_max + 1):
        level = table.cells[n]
        for op, type_ in _CELL_ORDER:
            level[op][type_] = sum([sum(values) for *_, values in _cell_terms(table, n, op, type_)])
        _close_level(table, n)
    return table


def total_nonisomorphic(n: int) -> int:
    return class_counts(n).total(n)


def worked_breakdown(table: CategoryTable, n: int, op: str, type_: int) -> Breakdown:
    """The summand decomposition behind one cell of a filled table.

    Every multiset count here is summed over partitions, and those of two
    or more classes are listed per partition, so the total cross-checks the
    partition path against the Euler series that filled the table.
    n above BREAKDOWN_MAX_N is an input error.
    """
    if n > BREAKDOWN_MAX_N:
        raise InputError(
            f"breakdowns list up to p(n) partitions; cell n={n} is above "
            f"{BREAKDOWN_MAX_N}"
        )
    terms = tuple(
        Term(kind, key, factors, value)
        for kind, keys, column, values in _cell_terms(table, n, op, type_, by_partition=True)
        for key, factors, value in zip(keys, column, values, strict=True)
    )
    total = sum(t.value for t in terms)
    if total != table.cell(n, op, type_):
        raise RuntimeError(
            f"breakdown of ({op}, {TYPE_NAMES[type_]}, {n}) sums to {total}, "
            f"table holds {table.cell(n, op, type_)}"
        )
    return Breakdown(n, op, type_, terms, total)


def _close_level(table: CategoryTable, k: int) -> None:
    """Extend every series by the completed level k; record the other pools."""
    cls, monic = table.cls, table.monic_second
    if k:
        series = table.series
        series["first_md"].extend(cls((1,), "*/", k))
        series["third_md"].extend(cls((3,), "*/", k))
        series["any_md"].extend(cls((1, 2, 3), "*/", k))
        series["monic_md"].extend(monic("*/", k))
        series["monic_pm"].extend(monic("+-", k))
        series["first_p"].extend(cls((1,), "+", k))
        series["third_pm"].extend(cls((3,), "+-", k))
    first_pt = cls((1,), "+*", k)
    second_pmt = cls((2,), "+-*", k)
    third_pmt = cls((3,), "+-*", k)
    monic_pmt = monic("+-*", k)
    counts = {
        "first_pt": first_pt,
        "second_pmt": second_pmt,
        "third_pmt": third_pmt,
        "first_ptd": cls((1,), "+*/", k),
        "third_ptd": cls((3,), "+*/", k),
        "any_ptd": cls((1, 2, 3), "+*/", k),
        # the partner pools of the third-type * cell and of the second-
        # and third-type / cells, summed once per level
        "times_third": first_pt + monic_pmt,
        "div_second": 2 * first_pt + monic_pmt,
        "div_third": 2 * first_pt + second_pmt + third_pmt,
    }
    for name, count in counts.items():
        table.pools.setdefault(name, []).append(count)


def _cell_terms(
    table: CategoryTable, n: int, op: str, type_: int, by_partition: bool = False
) -> list:
    """The summands of one cell as a list of blocks (kind, keys, factors,
    values): the block's i-th summand has key keys[i], factors factors[i]
    (a tuple) and value values[i], the fields of a ``Term``.  A convolution
    pairs k with n - k or n - 2k, so its factor columns are slices of the
    pools and series, and its values their products.  A block may hold
    iterators, so it is read once."""
    pool, series = table.pools, table.series
    up, down = slice(1, n), slice(n - 1, 0, -1)  # k = 1..n-1 and n - k
    # k = 1..n//2 and n - 2k; at n = 1 half is empty, and so is each pairing
    half, rest = slice(1, n // 2 + 1), slice(n - 2, None, -2)

    def partition_terms(name, total, nontrivial=False):
        return weighing_terms(from_prefix(series[name].counts[1:]), total, nontrivial)

    def weighings(name, index):
        # multisets of pool classes totalling k, for k in range(n)[index]
        if by_partition:
            return [
                sum(value for *_, value in partition_terms(name, k)) for k in range(n)[index]
            ]
        return series[name].weighings[index]

    def nontrivial(name):
        # multisets of two or more pool classes totalling n
        if by_partition:
            return sum(value for *_, value in partition_terms(name, n, True))
        return series[name].nontrivial(n)

    def several(name):
        if by_partition:
            rows = tuple(partition_terms(name, n, True))
            keys, factors, values = zip(*rows) if rows else ((), (), ())
            return "partition", keys, factors, values
        return "series", (name,), ((),), (nontrivial(name),)

    def convolution(keys, a, b):
        return "convolution", keys, zip(a, b), map(mul, a, b)

    def single(kind, factors, value):
        return kind, (None,), (factors,), (value,)

    first_pt = pool["first_pt"]

    if op == "+":
        if type_ == 1:
            return [several("first_md")]
        if type_ == 3:
            return [
                several("third_md"),
                convolution(
                    range(1, n // 2 + 1),
                    weighings("monic_md", half),
                    weighings("third_md", rest),
                ),
            ]
        every = nontrivial("any_md")
        f = table.cell(n, "+", 1)
        c = table.cell(n, "+", 3)
        return [single("difference", (every, f, c), every - f - c)]

    if op == "-":
        if type_ == 1:
            return []
        if type_ == 3:
            return [convolution(range(1, n // 2 + 1), pool["third_ptd"][rest], pool["first_ptd"][half])]
        every = sum(map(mul, pool["any_ptd"][up], pool["first_ptd"][down]))
        c = table.cell(n, "-", 3)
        return [single("difference", (every, c), every - c)]

    if op == "*":
        if type_ == 1:
            w = weighings("first_p", slice(n))
            return [several("first_p"), ("omega", range(n), zip(w), w)]
        if type_ == 2:
            w = nontrivial("monic_pm")
            doubled = [2 * b for b in weighings("monic_pm", up)]
            return [single("scaled", (2, w), 2 * w), convolution(range(1, n), doubled, first_pt[down])]
        return [
            several("third_pm"),
            convolution(range(1, n), weighings("third_pm", up), pool["times_third"][down]),
        ]

    if op == "/":
        if type_ == 1:
            return [convolution(range(1, n), first_pt[up], first_pt[down])]
        if type_ == 2:
            return [convolution(range(1, n), pool["second_pmt"][down], pool["div_second"][up])]
        return [convolution(range(1, n), pool["third_pmt"][down], pool["div_third"][up])]

    raise ValueError(f"unknown cell ({op!r}, {type_!r})")
