"""Sparse integer-coefficient multilinear polynomials.

A monomial is a strictly increasing tuple of variable indices (each
variable appears at most once); the empty tuple is the constant monomial.
Terms are stored sorted in lexicographic monomial order, so structural
equality coincides with mathematical equality and polynomials can serve
as dictionary keys.

The monomial order compares index sequences left to right, with a proper
prefix preceding its extensions and the constant monomial first.  On
tuples of ints this is exactly Python's native tuple order, e.g.
``(1, 3) < (2, 3, 4)`` and ``(2,) < (2, 3)``.

A ``PolyTable`` belongs to one build.  It keeps one copy of each distinct
polynomial, keyed by its term tuple, and one copy of each distinct
(monomial, coefficient) term, which every stored polynomial holds in
place of its own.  It computes the product of each operand pair once and
negates each stored polynomial once, so the many forms of an exhaustive
build share their polynomials, their products, their negations and their
terms; with coefficients +-1, a build on {1..n} keeps at most 2 * 2^n
terms.  A caller holding sorted terms finds the stored copy by them and
builds a polynomial only when it is new.  Polynomials and terms are
immutable, so sharing changes no value.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Iterable, Mapping

Monomial = tuple  # tuple[int, ...], strictly increasing


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class MissingAssignment(KeyError):
    """Evaluation point does not cover every variable of the polynomial."""


def _merge_disjoint(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b))


# monomial -> its text, "x1*x3" for (1, 3) and "1" for (): built once per
# monomial, shared by every polynomial that holds it
_monomial_text: dict = {}


class MultiPoly:
    """Immutable multilinear polynomial with canonical term order."""

    __slots__ = ("terms", "_text", "_hash")

    def __init__(self, terms: Iterable[tuple[Monomial, int]] = ()):
        # Trusted constructor: terms must already be sorted with distinct
        # monomials and nonzero coefficients.  Use from_dict otherwise.
        self.terms = tuple(terms)
        self._text = None
        self._hash = hash(self.terms)

    @classmethod
    def from_dict(cls, coeffs: Mapping[Monomial, int]) -> "MultiPoly":
        return cls(sorted((m, c) for m, c in coeffs.items() if c))

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        return cls([((), c)]) if c else cls()

    @classmethod
    def variable(cls, i: int) -> "MultiPoly":
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        return cls((((i,), 1),))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MultiPoly({self.text()!r})"

    def variables(self) -> frozenset:
        return frozenset(v for m, _ in self.terms for v in m)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        d = dict(self.terms)
        for m, c in other.terms:
            nc = d.get(m, 0) + c
            if nc:
                d[m] = nc
            elif m in d:
                del d[m]
        return MultiPoly.from_dict(d)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly([(m, -c) for m, c in self.terms])

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def mul_disjoint(self, other: "MultiPoly") -> "MultiPoly":
        """Product assuming variable sets are disjoint (caller-checked)."""
        # Disjointness makes every merged monomial unique, so no collection pass.
        out = []
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                out.append((_merge_disjoint(ma, mb), ca * cb))
        out.sort()
        return MultiPoly(out)

    def leading(self) -> tuple[Monomial, int]:
        """The lex-least monomial present and its coefficient."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return self.terms[0]

    def is_monic(self) -> bool:
        """True iff the coefficient of the lex-least monomial is positive."""
        return self.leading()[1] > 0

    def content(self) -> int:
        """gcd of the absolute coefficients; 0 for the zero polynomial."""
        return reduce(gcd, (abs(c) for _, c in self.terms), 0)

    def decompose(self, i: int) -> tuple["MultiPoly", "MultiPoly"]:
        """Split as ``x_i * head + tail`` with ``x_i`` absent from both parts.

        ``head`` is also the partial derivative with respect to ``x_i``.
        """
        head, tail = [], []
        for m, c in self.terms:
            if i in m:
                head.append((tuple(v for v in m if v != i), c))
            else:
                tail.append((m, c))
        head.sort()
        return MultiPoly(head), MultiPoly(tail)

    def substitute_zero(self, i: int) -> "MultiPoly":
        """The polynomial with every monomial containing ``x_i`` removed."""
        return MultiPoly((m, c) for m, c in self.terms if i not in m)

    def evaluate(self, point: Mapping[int, Fraction]) -> Fraction:
        """Exact value at a rational point covering all variables."""
        total = Fraction(0)
        for m, c in self.terms:
            val = Fraction(c)
            for v in m:
                try:
                    val *= point[v]
                except KeyError:
                    raise MissingAssignment(v) from None
            total += val
        return total

    def text(self) -> str:
        """Canonical serialization, bit-exact.

        Terms in lex order with single spaces around binary +/-, no leading
        ``+``, unit coefficients elided, the constant monomial as a bare
        integer: ``x1*x2 - x1*x3*x5 + x2*x4 - x3*x4*x5``.  Computed once
        per polynomial, from monomial texts built once per monomial.
        """
        if self._text is None:
            self._text = self._serialize()
        return self._text

    def _serialize(self) -> str:
        if not self.terms:
            return "0"
        texts = _monomial_text
        parts = []
        for m, c in self.terms:
            body = texts.get(m)
            if body is None:
                body = texts[m] = "*".join([f"x{v}" for v in m]) or "1"
            if c != 1 and c != -1:
                body = f"{abs(c)}*{body}" if m else str(abs(c))
            parts.append(" + " + body if c > 0 else " - " + body)
        # every part opens with its operator; the first one drops it
        first = parts[0]
        parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(parts)


ZERO = MultiPoly()
ONE = MultiPoly.constant(1)


class PolyTable:
    """One build's polynomials: each distinct one stored once under its term
    tuple, each product of an operand pair computed once, each stored
    polynomial negated once, and each distinct term kept once.

    ``polys.get(terms)`` is the stored polynomial with those sorted terms,
    or None; the tuple compares in C, so a lookup runs no Python-level
    ``__hash__`` or ``__eq__``.  ``products[a]`` is the row of a, b -> a*b
    for each b taken so far, made on first use: a caller that multiplies
    one polynomial by many fetches its row once.  A polynomial stored by
    ``intern`` holds the table's terms; one built from stored polynomials'
    terms, as ``canon.combine_row`` builds its + and - numerators, already
    does.  A table lives as long as the build that owns it.
    """

    __slots__ = ("polys", "terms", "products", "negations")

    def __init__(self):
        self.polys: dict = {}      # term tuple -> the stored polynomial
        self.terms: dict = {}      # (monomial, coefficient) -> the stored term
        self.products = defaultdict(dict)  # a -> its row: b -> a*b
        self.negations: dict = {}  # p -> -p, both stored

    def intern(self, p: MultiPoly) -> MultiPoly:
        """The stored polynomial equal to p; if it is new, p is stored,
        with its terms replaced by the table's equal ones."""
        stored = self.polys.get(p.terms)
        if stored is None:
            # equal terms in an equal tuple: p's value and hash stay
            p.terms = tuple(map(self.terms.setdefault, p.terms, p.terms))
            stored = self.polys[p.terms] = p
        return stored

    def product(self, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        """The stored product of two polynomials on disjoint variables."""
        row = self.products[a]
        ab = row.get(b)
        if ab is None:
            ab = row[b] = self.intern(a.mul_disjoint(b))
        return ab

    def negation(self, p: MultiPoly) -> MultiPoly:
        """The stored -p of a stored polynomial p."""
        neg = self.negations.get(p)
        if neg is None:
            neg = self.negations[p] = self.intern(-p)
            self.negations[neg] = p
        return neg
