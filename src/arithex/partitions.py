"""Integer partitions, multiset coefficients and colored-weight counts.

A partition is kept in compact multiplicity form: a tuple of
``(size, multiplicity)`` pairs with strictly increasing sizes, e.g.
``((1, 3), (2, 1))`` for 1+1+1+2.  Partitions of each n are generated in
lexicographic order of their ascending part lists, afresh on each call;
only traced breakdowns (``weighing_terms``) and the tests enumerate them.

The colored-weights count answers: given ``counts(k)`` colors of weight k
for every k >= 1, in how many ways can multisets of colored weights total
``n`` (repetition allowed)?  Summing over partitions, each part size k
used m times contributes multiset_coeff(counts(k), m) color choices.  The
same number is the coefficient of x^n in prod_k (1 - x^k)^(-counts(k)),
which the Euler transform yields in O(n^2) integer steps without any
partition (``EulerSeries``; Sloane & Plouffe, *The Encyclopedia of Integer
Sequences*, 1995):

    b_0 = 1,   b_n = (1/n) sum_{k=1..n} c_k b_(n-k),   c_k = sum_{d | k} d counts(d).
"""

from __future__ import annotations

from functools import cache
from math import comb
from operator import mul
from typing import Callable, Sequence

Partition = tuple  # tuple[tuple[int, int], ...]: ((size, multiplicity), ...)

CountVector = Callable[[int], int]


def from_prefix(values: Sequence[int]) -> CountVector:
    """Count vector from a finite prefix (1-based sizes); zero beyond it."""
    def counts(k: int) -> int:
        return values[k - 1] if 1 <= k <= len(values) else 0

    return counts


def _ascending_parts(n: int, minimum: int = 1):
    # classic ascending-composition generator; yields part lists in lex order
    if n == 0:
        yield []
        return
    for first in range(minimum, n + 1):
        for rest in _ascending_parts(n - first, first):
            yield [first] + rest


def _compact(parts: list) -> Partition:
    out = []
    for p in parts:
        if out and out[-1][0] == p:
            out[-1][1] += 1
        else:
            out.append([p, 1])
    return tuple((size, mult) for size, mult in out)


def all_partitions(n: int) -> tuple:
    """Every partition of n exactly once, in lexicographic order of the
    ascending part lists; n = 0 gives the single empty partition."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_compact(parts) for parts in _ascending_parts(n))


def partition_text(partition: Partition) -> str:
    """Compact display, e.g. ``(1^3,2^1)``."""
    inner = ",".join(f"{size}^{mult}" for size, mult in partition)
    return f"({inner})"


def multiset_coeff(n: int, k: int) -> int:
    """Number of k-element multisubsets of an n-element set: C(n+k-1, k)."""
    if k == 0:
        return 1
    if n == 0:
        return 0
    return comb(n + k - 1, k)


class EulerSeries:
    """Multiset counts of a count vector fixed one weight at a time.

    Once ``extend`` has fixed counts(1..m), ``weighings[t]`` equals
    ``count_weighings(counts, t)`` for every t <= m.
    """

    def __init__(self):
        self.counts = [0]       # counts[k] for k = 1..m; index 0 unused
        self.weighings = [1]    # b_0..b_m
        self._c = [0]           # c_1..c_m, the divisor sums
        self._next = None       # nontrivial(m + 1), once asked

    def nontrivial(self, n: int) -> int:
        """Multisets of two or more weights totalling n: b_n minus the
        single-weight term counts(n), so n may be the next, unfixed size."""
        m = len(self.weighings) - 1
        if not 1 <= n <= m + 1:
            raise ValueError(f"size {n} outside 1..{m + 1}")
        if n <= m:
            return self.weighings[n] - self.counts[n]
        if self._next is None:
            # c_n b_0 without the term n*counts(n), then c_k b_(n-k) for k < n
            total = self._proper_divisor_sum(n)
            total += sum(map(mul, self._c[1:], reversed(self.weighings)))
            self._next = total // n
        return self._next

    def extend(self, count: int) -> None:
        """Fix counts(n) = count for the next size n."""
        n = len(self.weighings)
        value = self.nontrivial(n) + count
        self._next = None
        self._c.append(self._proper_divisor_sum(n) + n * count)
        self.counts.append(count)
        self.weighings.append(value)

    def _proper_divisor_sum(self, n: int) -> int:
        divisors = _proper_divisors(n)
        return sum(map(mul, divisors, map(self.counts.__getitem__, divisors)))


@cache
def _proper_divisors(n: int) -> tuple:
    """The divisors of n below n, ascending; every series asks for each n."""
    return tuple(d for d in range(1, n // 2 + 1) if n % d == 0)


def count_weighings(counts: CountVector, total: int) -> int:
    """Multisets of colored weights summing to ``total``; 1 for total = 0."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    series = EulerSeries()
    for k in range(1, total + 1):
        series.extend(counts(k))
    return series.weighings[total]


def weighing_terms(counts: CountVector, total: int, nontrivial: bool = False):
    """Per-partition contributions, for traced breakdowns.

    Yields (partition, factors, value) with one multiset coefficient per
    distinct part size.
    """
    for partition in all_partitions(total):
        if nontrivial and partition == ((total, 1),):
            continue
        factors = tuple(multiset_coeff(counts(size), mult) for size, mult in partition)
        value = 1
        for f in factors:
            value *= f
        yield partition, factors, value
