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
polynomial, computes the product of each operand pair once and negates
each stored polynomial once, so the many forms of an exhaustive build
share their polynomials, their products and their negations.
Polynomials are immutable, so sharing changes no value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Iterable, Mapping

Monomial = tuple  # tuple[int, ...], strictly increasing


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class MissingAssignment(KeyError):
    """Evaluation point does not cover every variable of the polynomial."""


class FactorizationError(RuntimeError):
    """Internal consistency failure while splitting off a disjoint factor."""


def _merge_disjoint(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b))


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

    def divide_content(self, k: int) -> "MultiPoly":
        """Divide every coefficient by ``k`` (must divide exactly)."""
        out = []
        for m, c in self.terms:
            q, r = divmod(c, k)
            if r:
                raise ValueError(f"{k} does not divide coefficient {c}")
            out.append((m, q))
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
        per polynomial.
        """
        if self._text is None:
            self._text = self._serialize()
        return self._text

    def _serialize(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, (m, c) in enumerate(self.terms):
            mag = abs(c)
            if m:
                body = "*".join(f"x{v}" for v in m)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if k == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)


ZERO = MultiPoly()
ONE = MultiPoly.constant(1)


class PolyTable:
    """One build's polynomials: each distinct one stored once, each product
    of an operand pair computed once, each stored polynomial negated once.

    A table lives as long as the build that owns it; nothing is shared
    between builds.
    """

    __slots__ = ("polys", "products", "negations")

    def __init__(self):
        self.polys: dict = {}      # polynomial -> its stored copy
        self.products: dict = {}   # (a, b) -> a*b
        self.negations: dict = {}  # p -> -p, both stored

    def intern(self, p: MultiPoly) -> MultiPoly:
        """The stored polynomial equal to p, storing p if it is new."""
        return self.polys.setdefault(p, p)

    def product(self, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        """The stored product of two polynomials on disjoint variables."""
        ab = self.products.get((a, b))
        if ab is None:
            ab = self.products[a, b] = self.intern(a.mul_disjoint(b))
        return ab

    def negation(self, p: MultiPoly) -> MultiPoly:
        """The stored -p of a stored polynomial p."""
        neg = self.negations.get(p)
        if neg is None:
            neg = self.negations[p] = self.intern(-p)
            self.negations[neg] = p
        return neg


# ---------------------------------------------------------------------------
# Disjoint-variable factorization.
#
# A multilinear polynomial may split as a product of polynomials on pairwise
# disjoint variable sets (e.g. x1*x4 + x2*x4 = (x1 + x2) * x4).  Substituting
# zero into a reduced quotient can surface such factors common to numerator
# and denominator, so the quotient machinery needs to find and cancel them.
#
# Two variables u, v must live in the same factor unless the four-way split
# P = uv*A + u*B + v*C + D satisfies A*D == B*C: if P = Q*R with u in Q and
# v in R, then A = Q1*R1, B = Q1*R0, C = Q0*R1, D = Q0*R0, which forces the
# identity.  The products here may repeat variables, so they are computed
# with a small general (non-multilinear) helper.  Candidate factors found
# through the induced components are verified by exact division; failure is
# loud, never silent.
# ---------------------------------------------------------------------------


def _gen_mul(a: dict, b: dict) -> dict:
    """General sparse product; monomials are sorted tuples possibly repeating."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(sorted(ma + mb))
            nc = out.get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
    return out


def _pair_separable(p: MultiPoly, u: int, v: int) -> bool:
    """True if u and v can possibly live in different disjoint factors of p."""
    a, b, c, d = {}, {}, {}, {}
    for m, coef in p.terms:
        has_u, has_v = u in m, v in m
        stripped = tuple(x for x in m if x != u and x != v)
        if has_u and has_v:
            a[stripped] = coef
        elif has_u:
            b[stripped] = coef
        elif has_v:
            c[stripped] = coef
        else:
            d[stripped] = coef
    return _gen_mul(a, d) == _gen_mul(b, c)


def _components(p: MultiPoly) -> list[frozenset]:
    """Partition variables(p) into groups that must share a factor."""
    vs = sorted(p.variables())
    parent = {v: v for v in vs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if find(u) != find(v) and not _pair_separable(p, u, v):
                parent[find(u)] = find(v)
    groups: dict = {}
    for v in vs:
        groups.setdefault(find(v), []).append(v)
    return [frozenset(g) for g in groups.values()]


def _extract_factor(p: MultiPoly, comp: frozenset) -> tuple[MultiPoly, MultiPoly]:
    """Split ``p = q * r`` with variables(q) == comp; q monic with content 1."""
    outside: dict = {}
    for m, c in p.terms:
        m_out = tuple(v for v in m if v not in comp)
        m_in = tuple(v for v in m if v in comp)
        outside.setdefault(m_out, []).append((m_in, c))
    # Any single outside-group is a constant multiple of the factor on comp.
    sample = MultiPoly(sorted(outside[min(outside)]))
    q = sample.divide_content(sample.content())
    if not q.is_monic():
        q = -q
    lead_m, lead_c = q.leading()
    r_terms = []
    for m, c in p.terms:
        if tuple(v for v in m if v in comp) == lead_m:
            quot, rem = divmod(c, lead_c)
            if rem:
                raise FactorizationError(f"non-integral cofactor for component {sorted(comp)}")
            r_terms.append((tuple(v for v in m if v not in comp), quot))
    r = MultiPoly(sorted(r_terms))
    if q.mul_disjoint(r) != p:
        raise FactorizationError(f"verified division failed for component {sorted(comp)}")
    return q, r


def disjoint_factors(p: MultiPoly) -> tuple[int, int, list[MultiPoly]]:
    """Factor ``p`` as sign * content * product of disjoint-variable factors.

    Each returned factor is monic with content 1, and no factor splits
    further into polynomials on disjoint variable sets.
    """
    if not p:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    content = p.content()
    sign = 1 if p.is_monic() else -1
    core = p.divide_content(sign * content)
    if not core.variables():
        return sign, content, []
    factors = []
    comps = sorted(_components(core), key=min)
    for comp in comps[:-1]:
        q, core = _extract_factor(core, comp)
        factors.append(q)
        if not core.is_monic():
            # the flip that made q monic lands in the cofactor
            core = -core
            sign = -sign
    factors.append(core)
    factors.sort(key=lambda f: f.terms)
    return sign, content, factors
