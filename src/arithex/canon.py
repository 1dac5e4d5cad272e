"""Canonical multilinear quotient forms: the identity key of an expression.

Every single-use arithmetic expression denotes a rational function with a
unique representation as a reduced quotient of two multilinear polynomials
whose denominator is monic.  Equal forms mean identical functions, so the
form serves as hash key, orbit key and evaluation vehicle throughout.

Combining two forms with disjoint variable sets cross-multiplies, and
only ``/`` may flip both signs; no other normalization is needed.  Every
form built from atoms by + - * /, relabeling and zero assignment keeps
two invariants:

- its numerator and its denominator are each an antichain: no monomial
  contains another monomial of the same polynomial;
- no numerator monomial lies inside a denominator monomial.

Atoms hold both.  With disjoint operand variables a monomial of a product
splits one way only, as a|b with a from f and b from g, and a|b lies
inside a'|b' iff a lies inside a' and b inside b'.  So a containment in a
result of the cross-multiplication rules below needs a containment within
one polynomial of an operand, or a numerator monomial of an operand inside
one of its denominator monomials, and each rule keeps both invariants.
The ``/`` flip, the reversed results and relabeling keep the monomial sets,
and zero assignment only drops terms and cancels common factors.

What follows, for f = F1/F2 and g = G1/G2:

- F1*G2, F2*G1 and F2*G2 share no monomial, so no two terms are ever
  added: every coefficient stays +-1, the content is always 1, and the
  ``+`` and ``-`` numerators are each one sort of two sorted runs.
- Merging with a monomial on other variables reverses a < a' of sorted
  tuples only if a is a prefix of a', and so a subset of it.  The least
  monomial of a product of antichains is therefore the merge of their
  least monomials, with the product of their coefficients: F2*G2 is
  monic, ``+``, ``-`` and ``*`` never flip a sign, and ``/`` flips
  exactly when G1 is not monic.
- Zero assignment keeps the coefficients +-1, so it has no content to
  divide out.

The test suite checks both invariants and the monic denominator on every
generated form.  No polynomial gcd is taken either: with disjoint operand
variables the cross product of reduced forms stays reduced, an assumption
the test suite guards with randomized functional-equality checks.  Zero
assignment is the one operation that can surface a common factor, and it
cancels it by a slice on the variables the quotient no longer depends on,
checked by cross-multiplication (see ``reduce_quotient``).

Work repeated across a build is done once.  ``pair_combiner`` decides
once per build which operators apply and returns the function that
combines one pair of forms under all of them, taking each cross product
at its first use from the rows of the left polynomials in a
``mpoly.PolyTable``.  Every denominator and every ``*`` and ``/``
numerator is a stored product or its stored negation, and so are the
reversed ``-`` and ``/`` results, so the ``+`` and ``-`` numerators are
the only polynomials that can be new: each is sorted from stored terms,
looked up by them and built only if it is not stored (at n = 5, 21 984
of the 24 040 are).  A build that passes one table thus computes each
product once, negates each polynomial once and keeps one copy of each
polynomial and of each term.  The per-pair function returns polynomials,
not forms: the build makes each result its record, and ``combine``, the
one-operator call, a ``CanonForm``.  A form hashes its polynomials'
cached hashes, so hashing a form reads no term, and two forms holding
the same polynomial objects, as equal forms of one build do, compare
equal without reading a term.

An orbit walks all n! relabelings of {1..n}, each through ``apply_perm``;
every caller in the package takes orbits of forms on at most 4 variables
(``verify``'s listing check keys 3- or 4-variable classes).

Signature cells, a variable partition that no relabeling changes, serve
only ``is_isomorphic``: it maps each cell of one form onto the same cell
of the other, and builds each bijection only after the one before it has
failed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .mpoly import ONE, MultiPoly, PolyTable
from .projrat import EvalResult, UNDEFINED, p_div

OPS = ("+", "-", "*", "/")


class OverlappingVariables(ValueError):
    """Operands of a combination share a variable."""


class NonAEResult(RuntimeError):
    """A combination produced a vanishing numerator; cannot happen for
    reduced operands on disjoint variables, so this is a hard failure."""


class NonContiguousVariables(ValueError):
    """An orbit operation needs the variable set to be exactly {1..n}."""


class VariableNotPresent(KeyError):
    """Zero assignment for a variable the form does not depend on."""


class CanonForm:
    """Reduced quotient num/den; immutable, hashable, order-stable."""

    __slots__ = ("num", "den", "varset", "_hash")

    def __init__(self, num: MultiPoly, den: MultiPoly, varset: frozenset):
        # Trusted constructor; use atom/combine or _normalized to build.
        self.num = num
        self.den = den
        self.varset = varset
        # the polynomials' cached hashes; equality still compares the terms
        self._hash = hash((num._hash, den._hash))

    def __eq__(self, other) -> bool:
        # within a build equal forms hold the same stored polynomials
        if not isinstance(other, CanonForm):
            return False
        num, den = other.num, other.den
        return (self.num is num or self.num.terms == num.terms) and (
            self.den is den or self.den.terms == den.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CanonForm({form_str(self)!r})"


def form_str(f: CanonForm) -> str:
    """Canonical text, the exact hash/orbit-key serialization."""
    return f"({f.num.text()}) / ({f.den.text()})"


def atom(i: int, table: Optional[PolyTable] = None) -> CanonForm:
    """The form of the bare variable x_i, its polynomials stored in table."""
    if table is None:
        table = PolyTable()
    num = table.intern(MultiPoly.variable(i))
    return CanonForm(num, table.intern(ONE), frozenset((i,)))


def _normalized(num: MultiPoly, den: MultiPoly) -> CanonForm:
    """The form num/den with a monic denominator, on the variables of num
    and den."""
    if not den.is_monic():
        num, den = -num, -den
    return CanonForm(num, den, num.variables() | den.variables())


def pair_combiner(ops, table: Optional[PolyTable] = None):
    """The function that combines one pair of forms f and g, on disjoint
    variable sets (unchecked), under the operators of ops, distinct ones of
    + - * /: it returns the results in + - * / order as one flat tuple of
    polynomials, the numerator and the denominator of each in turn, with
    g - f right after f - g and g / f right after f / g.  Which operators
    it applies is decided here, once for all the pairs it combines.

    Cross-multiplication rules, with f = F1/F2 and g = G1/G2:
    ``+ -> (F1*G2 + F2*G1)/(F2*G2)``, ``- -> (F1*G2 - F2*G1)/(F2*G2)``,
    ``* -> (F1*G1)/(F2*G2)``, ``/ -> (F1*G2)/(F2*G1)``; g - f negates the
    numerator of f - g, and g / f is (F2*G1)/(F1*G2).  Only ``/`` flips
    both signs, when its denominator is not monic (module docstring).  The
    results hold table's polynomials, each product read from its left
    factor's row; without a table the function gets a fresh one.  A
    vanishing numerator or ``/`` denominator raises ``NonAEResult``.
    """
    if table is None:
        table = PolyTable()
    products, product, negation, polys = table.products, table.product, table.negation, table.polys
    plus, minus, times, divide = (op in ops for op in OPS)
    cross, common = plus or minus or divide, plus or minus or times  # F1*G2 and F2*G1; F2*G2

    def combine_pair(f: CanonForm, g: CanonForm) -> tuple:
        f1, f2, g1, g2 = f.num, f.den, g.num, g.den
        row1, row2 = products[f1], products[f2]
        if cross:
            f1g2, f2g1 = row1.get(g2), row2.get(g1)
            if f1g2 is None:
                f1g2 = product(f1, g2)
            if f2g1 is None:
                f2g1 = product(f2, g1)
        if common:
            f2g2 = row2.get(g2)
            if f2g2 is None:
                f2g2 = product(f2, g2)
        out = []
        # F1*G2 and F2*G1 share no monomial: the + and - numerators are each
        # one sort of two sorted runs of stored terms, built only if new
        if plus:
            terms = tuple(sorted(f1g2.terms + f2g1.terms))
            if not terms:
                raise NonAEResult(f"vanishing numerator combining {f!r} + {g!r}")
            num = polys.get(terms)
            if num is None:
                num = polys[terms] = MultiPoly(terms)
            out += (num, f2g2)
        if minus:
            terms = tuple(sorted(f1g2.terms + negation(f2g1).terms))
            if not terms:
                raise NonAEResult(f"vanishing numerator combining {f!r} - {g!r}")
            num = polys.get(terms)
            if num is None:
                num = polys[terms] = MultiPoly(terms)
            out += (num, f2g2, negation(num), f2g2)
        if times:
            num = row1.get(g1)
            if num is None:
                num = product(f1, g1)
            if not num.terms:
                raise NonAEResult(f"vanishing numerator combining {f!r} * {g!r}")
            out += (num, f2g2)
        if divide:
            upper, lower = f1g2.terms, f2g1.terms
            if not lower:
                raise NonAEResult(f"vanishing denominator combining {f!r} / {g!r}")
            if not upper:
                raise NonAEResult(f"vanishing numerator combining {f!r} / {g!r}")
            out += (f1g2, f2g1) if lower[0][1] > 0 else (negation(f1g2), negation(f2g1))
            out += (f2g1, f1g2) if upper[0][1] > 0 else (negation(f2g1), negation(f1g2))
        return tuple(out)

    return combine_pair


def combine(op: str, f: CanonForm, g: CanonForm, varset: Optional[frozenset] = None,
            table: Optional[PolyTable] = None) -> CanonForm:
    """f op g for two forms on disjoint variable sets, whose union is varset
    (unchecked if given): the first result of ``pair_combiner`` for op."""
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}")
    if varset is None:
        if f.varset & g.varset:
            raise OverlappingVariables(f"operands share variables {sorted(f.varset & g.varset)}")
        varset = f.varset | g.varset
    polys = pair_combiner((op,), table)(f, g)
    return CanonForm(polys[0], polys[1], varset)


def negate(f: CanonForm) -> CanonForm:
    """Flip the numerator sign.  The denominator stays monic, so the result
    is a valid form; whether it still denotes a constructible expression is
    a question for the exhaustive generator, not for this module."""
    return CanonForm(-f.num, f.den, f.varset)


def is_monic_form(f: CanonForm) -> bool:
    return f.num.is_monic()


# -- permutations -----------------------------------------------------------
#
# A permutation is a dict {i: sigma(i)} with finite support; absent keys are
# fixed points.  Applying sigma to a form relabels every variable x_i as
# x_sigma(i), re-sorts monomials and restores the monic denominator.

Permutation = Mapping[int, int]


def apply_perm(perm: Permutation, f: CanonForm) -> CanonForm:
    """Relabel variables through perm and renormalize the denominator sign."""
    num_terms, den_terms = [
        sorted((tuple(sorted([perm.get(v, v) for v in m])), c) for m, c in p.terms)
        for p in (f.num, f.den)
    ]
    if den_terms[0][1] < 0:
        num_terms = [(m, -c) for m, c in num_terms]
        den_terms = [(m, -c) for m, c in den_terms]
    varset = frozenset(perm.get(v, v) for v in f.varset)
    return CanonForm(MultiPoly(num_terms), MultiPoly(den_terms), varset)


def _require_contiguous(f: CanonForm) -> int:
    n = len(f.varset)
    if f.varset != frozenset(range(1, n + 1)):
        raise NonContiguousVariables(
            f"variable set {sorted(f.varset)} is not {{1..{n}}}; relabel first"
        )
    return n


def _signature_cells(f: CanonForm, n: int) -> dict:
    """The variables of f on {1..n} by signature, each list increasing: the
    sorted (degree, |coefficient|) of the num and of the den terms holding
    the variable, unchanged by relabeling and by a global sign flip.  One
    pass over the terms collects every variable's signature."""
    held = [([], []) for _ in range(n + 1)]  # v -> (num, den) term shapes
    for side, p in enumerate((f.num, f.den)):
        for m, c in p.terms:
            shape = (len(m), abs(c))
            for v in m:
                held[v][side].append(shape)
    cells: dict = {}
    for v in range(1, n + 1):
        num, den = held[v]
        num.sort()
        den.sort()
        cells.setdefault((tuple(num), tuple(den)), []).append(v)
    return cells


def is_isomorphic(f: CanonForm, g: CanonForm) -> Optional[dict]:
    """A permutation sigma with apply_perm(sigma, f) == g, or None.

    Both forms must live on the contiguous variable set {1..n}.  The search
    tries only the bijections that map each signature cell of f onto the
    cell of g with the same signature, which prunes the bulk of S_n at the
    sizes this library targets.
    """
    n = _require_contiguous(f)
    if _require_contiguous(g) != n:
        return None
    cells_f, cells_g = _signature_cells(f, n), _signature_cells(g, n)
    sigs = sorted(cells_f)
    if sigs != sorted(cells_g) or any(len(cells_f[sig]) != len(cells_g[sig]) for sig in sigs):
        return None
    for perm in _cell_bijections([(cells_f[sig], cells_g[sig]) for sig in sigs], {}):
        if apply_perm(perm, f) == g:
            return {k: v for k, v in perm.items() if k != v}
    return None


def _cell_bijections(cells: list, perm: dict) -> Iterator[dict]:
    """perm extended by each bijection that maps every source cell onto its
    target cell, cells a list of (source, target) pairs, in the order of
    ``itertools.product`` over the targets' permutations.  One dict is
    updated in place and yielded: each bijection is built only when the
    caller asks for it, and holds until the next one.
    """
    if not cells:
        yield perm
        return
    (source, target), rest = cells[0], cells[1:]
    for image in itertools.permutations(target):
        perm.update(zip(source, image))
        yield from _cell_bijections(rest, perm)


def orbit(f: CanonForm) -> set:
    """The isomorphism class of f: its distinct images under all n!
    relabelings of {1..n}.

    Two forms are isomorphic iff each lies in the other's orbit.
    """
    base = range(1, _require_contiguous(f) + 1)
    return {apply_perm(dict(zip(base, image)), f) for image in itertools.permutations(base)}


def orbit_key(f: CanonForm) -> str:
    """Lexicographically least serialization over the orbit of f.

    Equal keys iff the forms are isomorphic.
    """
    return min(form_str(g) for g in orbit(f))


def relabel_contiguous(f: CanonForm) -> CanonForm:
    """Order-preserving relabeling of the variable set onto {1..k}."""
    return apply_perm({v: i for i, v in enumerate(sorted(f.varset), start=1)}, f)


# -- evaluation and zero assignment -----------------------------------------


def eval_form(f: CanonForm, point: Mapping[int, Fraction]) -> EvalResult:
    """num/den at a finite rational point; both-zero comes out UNDEFINED."""
    return p_div(f.num.evaluate(point), f.den.evaluate(point))


@dataclass(frozen=True)
class ZeroAssignResult:
    """Outcome of substituting zero for one variable.

    kind is one of "zero", "infinity", "form", "non_ae".  A "form" carries
    the reduced quotient; "non_ae" carries the reduced pair that failed the
    structural membership checks (e.g. -x2 over 1).
    """

    kind: str
    form: Optional[CanonForm] = None
    num: Optional[MultiPoly] = None
    den: Optional[MultiPoly] = None


def _gen_mul(a, b) -> dict:
    """General sparse product of two term sequences; a monomial of the
    product is a sorted tuple that may repeat a variable."""
    out: dict = {}
    for ma, ca in a:
        for mb, cb in b:
            m = tuple(sorted(ma + mb))
            nc = out.get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
    return out


def reduce_quotient(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Cancel the factor common to num and den, nonzero with coefficients
    +-1: a zero assignment only drops terms of a form, so there is no
    content to divide out.

    Write num = G*A and den = G*B with A/B reduced.  The common factor is
    cancelled by a slice on W, the variables of both sides on which the
    quotient does not depend, and the slice is exact:

    - every factorization of a multilinear polynomial is variable-disjoint,
      since a variable in two factors would have degree 2 in the product;
      so G lies on variables that A and B do not hold;
    - a reduced quotient that does not depend on x_v contains no x_v.  Its
      derivative in x_v has numerator A1*B0 - A0*B1, where A = x_v*A1 + A0
      and B = x_v*B1 + B0.  If that vanishes, A*B1 == A1*B, so B, prime to
      A, divides B1, which has a lower degree in x_v: B1 = 0, then A1 = 0;
    - so W is exactly the set of variables of G: those lie on both sides
      and in neither A nor B, and the quotient depends on every variable of
      A or B.  Each shared variable is tested once, as N1*D0 == N0*D1 on
      the splits of num and den.

    Grouping the terms of num by their part on W then gives c_m*A for each
    monomial m of G with coefficient c_m, and those of den give c_m*B; the
    coefficients of num force c_m = +-1.  So the terms whose part on W is
    that of num's first term, with W removed, are A and B up to one common
    sign.  The slices must cross-multiply to num and den, else this raises
    RuntimeError.
    """
    dropped = set()
    for v in num.variables() & den.variables():
        n1, n0 = num.decompose(v)
        d1, d0 = den.decompose(v)
        if _gen_mul(n1.terms, d0.terms) == _gen_mul(n0.terms, d1.terms):
            dropped.add(v)
    if not dropped:
        return num, den
    lead = tuple(v for v in num.terms[0][0] if v in dropped)
    slices = []
    for p in (num, den):
        kept = [
            (tuple(v for v in m if v not in dropped), c)
            for m, c in p.terms
            if tuple(v for v in m if v in dropped) == lead
        ]
        kept.sort()  # dropping W can reorder: (1, 2) < (2,), but (1,) > ()
        slices.append(MultiPoly(kept))
    a, b = slices
    if _gen_mul(a.terms, den.terms) != _gen_mul(b.terms, num.terms):
        raise RuntimeError(
            f"no common factor on variables {sorted(dropped)} of "
            f"({num.text()}) / ({den.text()})"
        )
    return a, b


def assign_zero(f: CanonForm, i: int) -> ZeroAssignResult:
    """Substitute x_i = 0 and rebuild the reduced form.

    The result may be identically zero, identically infinity, a smaller
    valid form, or a reduced quotient that no constructible expression
    attains (flagged non_ae).
    """
    if i not in f.varset:
        raise VariableNotPresent(i)
    num = f.num.substitute_zero(i)
    if not num:
        return ZeroAssignResult("zero")
    den = f.den.substitute_zero(i)
    if not den:
        return ZeroAssignResult("infinity")
    num, den = reduce_quotient(num, den)
    g = _normalized(num, den)
    if _passes_membership_checks(g):
        return ZeroAssignResult("form", form=g)
    return ZeroAssignResult("non_ae", num=g.num, den=g.den)


def _passes_membership_checks(g: CanonForm) -> bool:
    # Structural sanity: nonzero parts, monic denominator, dependency left.
    if not g.num or not g.den or not g.den.is_monic():
        return False
    if not g.varset:
        return False
    # On a single variable the only constructible expression is the bare
    # atom, so anything else (such as -x2 over 1) is rejected outright.
    # Larger forms pass; exact membership is the generator's business.
    if len(g.varset) == 1:
        return g == atom(next(iter(g.varset)))
    return True
