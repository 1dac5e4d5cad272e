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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
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
# takes about 2.5 s and 26 MB peak RSS at n = 500, 18 s and 59 MB at
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
        return sum(level[op][t] for op in ops for t in types)

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
            width = max(8, len(str(self.total(n))) + 2)
            header = f"n={n}".ljust(8) + "".join(op.rjust(width) for op in OPS)
            lines.append(header + "total".rjust(width))
            for t in (1, 2, 3):
                row = TYPE_NAMES[t].ljust(8)
                row += "".join(str(self.cells[n][op][t]).rjust(width) for op in OPS)
                row += str(self.cls((t,), OPS, n)).rjust(width)
                lines.append(row)
            row = "total".ljust(8)
            row += "".join(str(self.cls((1, 2, 3), (op,), n)).rjust(width) for op in OPS)
            row += str(self.total(n)).rjust(width)
            lines.append(row)
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
        for op, type_ in _CELL_ORDER:
            table.cells[n][op][type_] = sum(
                value for *_, value in _cell_terms(table, n, op, type_)
            )
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
    terms = tuple(Term(*t) for t in _cell_terms(table, n, op, type_, by_partition=True))
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
    counts = {
        "first_pt": cls((1,), "+*", k),
        "second_pmt": cls((2,), "+-*", k),
        "third_pmt": cls((3,), "+-*", k),
        "monic_pmt": monic("+-*", k),
        "first_ptd": cls((1,), "+*/", k),
        "third_ptd": cls((3,), "+*/", k),
        "any_ptd": cls((1, 2, 3), "+*/", k),
    }
    for name, count in counts.items():
        table.pools.setdefault(name, []).append(count)


def _cell_terms(
    table: CategoryTable, n: int, op: str, type_: int, by_partition: bool = False
) -> list:
    """The summands of one cell as (kind, key, factors, value) tuples, the
    fields of a ``Term``; only a breakdown makes them Terms."""
    pool, series = table.pools, table.series

    def partition_terms(name, total, nontrivial=False):
        return weighing_terms(from_prefix(series[name].counts[1:]), total, nontrivial)

    def weighings(name, k):
        # multisets of pool classes totalling k
        if by_partition:
            return sum(value for _, _, value in partition_terms(name, k))
        return series[name].weighings[k]

    def nontrivial(name):
        # multisets of two or more pool classes totalling n
        if by_partition:
            return sum(value for _, _, value in partition_terms(name, n, True))
        return series[name].nontrivial(n)

    def several(name):
        if by_partition:
            return [
                ("partition", partition, factors, value)
                for partition, factors, value in partition_terms(name, n, True)
            ]
        return [("series", name, (), nontrivial(name))]

    first_pt = pool["first_pt"]

    if op == "+":
        if type_ == 1:
            return several("first_md")
        if type_ == 3:
            terms = several("third_md")
            for k in range(1, n // 2 + 1):
                a = weighings("monic_md", k)
                b = weighings("third_md", n - 2 * k)
                terms.append(("convolution", k, (a, b), a * b))
            return terms
        every = nontrivial("any_md")
        f = table.cell(n, "+", 1)
        c = table.cell(n, "+", 3)
        return [("difference", None, (every, f, c), every - f - c)]

    if op == "-":
        if type_ == 1:
            return []
        if type_ == 3:
            terms = []
            for k in range(1, n // 2 + 1):
                a = pool["third_ptd"][n - 2 * k]
                b = pool["first_ptd"][k]
                terms.append(("convolution", k, (a, b), a * b))
            return terms
        every = sum(pool["any_ptd"][k] * pool["first_ptd"][n - k] for k in range(1, n))
        c = table.cell(n, "-", 3)
        return [("difference", None, (every, c), every - c)]

    if op == "*":
        if type_ == 1:
            terms = several("first_p")
            for k in range(n):
                w = weighings("first_p", k)
                terms.append(("omega", k, (w,), w))
            return terms
        if type_ == 2:
            w = nontrivial("monic_pm")
            terms = [("scaled", None, (2, w), 2 * w)]
            for k in range(1, n):
                a = 2 * weighings("monic_pm", k)
                b = first_pt[n - k]
                terms.append(("convolution", k, (a, b), a * b))
            return terms
        terms = several("third_pm")
        for k in range(1, n):
            a = weighings("third_pm", k)
            b = first_pt[n - k] + pool["monic_pmt"][n - k]
            terms.append(("convolution", k, (a, b), a * b))
        return terms

    if op == "/":
        terms = []
        for k in range(1, n):
            if type_ == 1:
                a = first_pt[k]
                b = first_pt[n - k]
            elif type_ == 2:
                a = pool["second_pmt"][n - k]
                b = 2 * first_pt[k] + pool["monic_pmt"][k]
            else:
                a = pool["third_pmt"][n - k]
                b = 2 * first_pt[k] + pool["second_pmt"][k] + pool["third_pmt"][k]
            terms.append(("convolution", k, (a, b), a * b))
        return terms

    raise ValueError(f"unknown cell ({op!r}, {type_!r})")
