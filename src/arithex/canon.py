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
The ``/`` flip, ``swap_operands`` and relabeling keep the monomial sets,
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
cancels factors via verified disjoint-variable factorization.

Work repeated across a build is done once.  ``combine_pair`` combines
one operand pair under several operators in one pass: it takes each cross
product the operators need once from a ``mpoly.PolyTable``.  Every
denominator and every ``*`` and ``/`` numerator is a stored product, or
its stored negation when ``/`` flips, so the ``+`` and ``-`` numerators
are the only polynomials it stores anew; ``swap_operands`` builds its
results from stored polynomials and their stored negations alone.  An
exhaustive build that passes one table thus computes each product once,
negates each polynomial once and keeps one copy of each polynomial.
``combine`` is its one-operator call, and ``_normalized`` only serves
zero assignment, whose quotients are new.  A form hashes its
polynomials' cached hashes, so hashing a form reads no term.
``Relabelings(n)`` pairs each permutation of {1..n} with a table of
monomial images, so the orbits of many forms of one size relabel each
monomial once per permutation.

Searches start from one variable partition, the signature cells, which no
relabeling changes: ``is_isomorphic`` maps each cell of one form onto the
same cell of the other, and ``_twin_cells`` tests swaps within a cell.

An orbit is walked once per twin-cell transversal.  Variables that a
transposition automorphism swaps form twin cells; relabelings that differ
only within cells give the same image, so ``orbit`` applies one per coset:
the relabelings increasing on every cell, listed once per cell pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .mpoly import ONE, MultiPoly, PolyTable, disjoint_factors
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
        return (
            isinstance(other, CanonForm)
            and self.num.terms == other.num.terms
            and self.den.terms == other.den.terms
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


def combine_pair(
    f: CanonForm,
    g: CanonForm,
    ops: tuple,
    varset: Optional[frozenset] = None,
    table: Optional[PolyTable] = None,
) -> list:
    """``[(op, f op g) for op in ops]`` for two forms on disjoint variable
    sets, each op one of +, -, * and /.

    Cross-multiplication rules, with f = F1/F2 and g = G1/G2:
    ``+ -> (F1*G2 + F2*G1)/(F2*G2)``, ``- -> (F1*G2 - F2*G1)/(F2*G2)``,
    ``* -> (F1*G1)/(F2*G2)``, ``/ -> (F1*G2)/(F2*G1)``.

    The operators share their products: each one ops needs is taken from
    table once.  By the form invariants (see the module docstring) only
    ``/`` flips a sign, when G1 is not monic, and the + and - numerators
    need no merge of equal monomials.  The results' num and den are
    stored in table, a flipped sign taken from its stored negations; a
    build passes its one table to every call, a one-off call gets a
    fresh one.
    """
    if varset is None:
        if f.varset & g.varset:
            raise OverlappingVariables(
                f"operands share variables {sorted(f.varset & g.varset)}"
            )
        varset = f.varset | g.varset
    if table is None:
        table = PolyTable()
    product, negation = table.product, table.negation
    quotients = {}  # op -> (num, den), den stored and monic
    sum_or_diff = "+" in ops or "-" in ops
    if sum_or_diff or "/" in ops:
        f1g2, f2g1 = product(f.num, g.den), product(f.den, g.num)
        if "/" in ops:
            if f2g1.terms[0][1] > 0:
                quotients["/"] = f1g2, f2g1
            else:
                quotients["/"] = negation(f1g2), negation(f2g1)
    if sum_or_diff or "*" in ops:
        f2g2 = product(f.den, g.den)
        # F1*G2 and F2*G1 share no monomial: each numerator is one sort of
        # two sorted runs, and the only pair of polynomials not yet stored
        if "+" in ops:
            quotients["+"] = MultiPoly(sorted(f1g2.terms + f2g1.terms)), f2g2
        if "-" in ops:
            quotients["-"] = MultiPoly(sorted(f1g2.terms + negation(f2g1).terms)), f2g2
        if "*" in ops:
            quotients["*"] = product(f.num, g.num), f2g2
    results = []
    for op in ops:
        quotient = quotients.get(op)
        if quotient is None:
            raise ValueError(f"unknown operator {op!r}")
        num, den = quotient
        if not num:
            raise NonAEResult(f"vanishing numerator combining {f!r} {op} {g!r}")
        if op in "+-":
            num = table.intern(num)
        results.append((op, CanonForm(num, den, varset)))
    return results


def combine(
    op: str,
    f: CanonForm,
    g: CanonForm,
    varset: Optional[frozenset] = None,
    table: Optional[PolyTable] = None,
) -> CanonForm:
    """f op g for two forms on disjoint variable sets: the one-operator
    ``combine_pair``."""
    return combine_pair(f, g, (op,), varset, table)[0][1]


def negate(f: CanonForm) -> CanonForm:
    """Flip the numerator sign.  The denominator stays monic, so the result
    is a valid form; whether it still denotes a constructible expression is
    a question for the exhaustive generator, not for this module."""
    return CanonForm(-f.num, f.den, f.varset)


def swap_operands(op: str, f: CanonForm, table: Optional[PolyTable] = None) -> CanonForm:
    """combine(op, h, g) from f = combine(op, g, h), for op - or /.

    h - g is f with its numerator negated; h / g is f with numerator and
    denominator swapped, both negated if the new denominator is not
    monic.  No product is taken: with f's polynomials stored in table, the
    result holds them or their stored negations, as combine's results do.
    """
    if table is None:
        table = PolyTable()
    if op == "-":
        num, den = table.negation(f.num), f.den
    elif op == "/":
        num, den = f.den, f.num
        if den.terms[0][1] < 0:
            num, den = table.negation(num), table.negation(den)
    else:
        raise ValueError(f"operator {op!r} has no swapped-operand rule")
    return CanonForm(num, den, f.varset)


def is_monic_form(f: CanonForm) -> bool:
    return f.num.is_monic()


# -- permutations -----------------------------------------------------------
#
# A permutation is a dict {i: sigma(i)} with finite support; absent keys are
# fixed points.  Applying sigma to a form relabels every variable x_i as
# x_sigma(i), re-sorts monomials and restores the monic denominator.

Permutation = Mapping[int, int]


def all_perms(n: int) -> Iterator[dict]:
    """Every permutation of {1..n} as a mapping dict."""
    base = range(1, n + 1)
    for image in itertools.permutations(base):
        yield dict(zip(base, image))


class Relabelings:
    """Every permutation of {1..n}, each paired with its table of monomial
    images, filled as monomials are relabeled; and, per partition of
    {1..n} into cells, the transversal: the pairs whose permutation is
    increasing on every cell, listed on first use.

    Callers that relabel many forms of one size share one object, so each
    monomial is relabeled once per permutation and each transversal is
    listed once.
    """

    __slots__ = ("n", "pairs", "_swaps", "_transversals")

    def __init__(self, n: int):
        self.n = n
        self.pairs = [(perm, {}) for perm in all_perms(n)]
        self._swaps: dict = {}  # (i, j) -> pair of the transposition of i and j
        for pair in self.pairs:
            moved = tuple(k for k, v in pair[0].items() if k != v)
            if len(moved) == 2:
                self._swaps[moved] = pair
        self._transversals: dict = {}  # cells -> pairs increasing on each cell

    def swap(self, i: int, j: int) -> tuple:
        """The pair of the transposition of i < j."""
        return self._swaps[i, j]

    def transversal(self, cells: tuple) -> list:
        """The pairs increasing on every cell, a cell an increasing tuple."""
        pairs = self._transversals.get(cells)
        if pairs is None:
            steps = [(a, b) for cell in cells for a, b in zip(cell, cell[1:])]
            pairs = self._transversals[cells] = [
                (perm, images)
                for perm, images in self.pairs
                if all(perm[a] < perm[b] for a, b in steps)
            ]
        return pairs


def _relabel(f: CanonForm, perm: Permutation, images: dict, varset: frozenset) -> CanonForm:
    """f relabeled through perm, monomial images read from and added to
    images; varset is the relabeled variable set."""
    relabeled = []
    for p in (f.num, f.den):
        terms = []
        for m, c in p.terms:
            image = images.get(m)
            if image is None:
                image = images[m] = tuple(sorted([perm.get(v, v) for v in m]))
            terms.append((image, c))
        terms.sort()
        relabeled.append(terms)
    num_terms, den_terms = relabeled
    if den_terms[0][1] < 0:
        num_terms = [(m, -c) for m, c in num_terms]
        den_terms = [(m, -c) for m, c in den_terms]
    return CanonForm(MultiPoly(num_terms), MultiPoly(den_terms), varset)


def apply_perm(perm: Permutation, f: CanonForm) -> CanonForm:
    """Relabel variables through perm and renormalize the denominator sign."""
    return _relabel(f, perm, {}, frozenset(perm.get(v, v) for v in f.varset))


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
    for images in itertools.product(*(itertools.permutations(cells_g[sig]) for sig in sigs)):
        perm = {}
        for sig, image in zip(sigs, images):
            perm.update(zip(cells_f[sig], image))
        if apply_perm(perm, f) == g:
            return {k: v for k, v in perm.items() if k != v}
    return None


def _twin_cells(f: CanonForm, relabels: Relabelings) -> tuple:
    """The twin cells of f on {1..n}, increasing tuples in order of their
    least variable: i and j share a cell iff swapping x_i and x_j fixes f.

    Twins share a signature, so only pairs within a signature cell are
    tested.  Twins form an equivalence, since (i k) = (i j)(j k)(i j), so
    the least variable of a signature cell not yet in a twin cell is tested
    against the rest once: m - 1 tests for a signature cell of m twins, at
    most m(m-1)/2 for any m variables.
    """
    varset = f.varset
    cells = []
    for untested in _signature_cells(f, relabels.n).values():
        while untested:
            i, *rest = untested
            cell, untested = [i], []
            for j in rest:
                perm, images = relabels.swap(i, j)
                if _relabel(f, perm, images, varset) == f:
                    cell.append(j)
                else:
                    untested.append(j)
            cells.append(tuple(cell))
    cells.sort()
    return tuple(cells)


def orbit(f: CanonForm, relabels: Optional[Relabelings] = None) -> set:
    """The isomorphism class of f: its distinct images under every
    relabeling of {1..n}.

    Two forms are isomorphic iff each lies in the other's orbit.  Only the
    relabelings increasing on every twin cell of f are applied: the cells'
    symmetric groups make a subgroup H of the automorphisms of f, and
    every permutation is t∘h with h in H and t increasing on the cells, so
    these images are the whole orbit.  relabels defaults to a fresh
    Relabelings(n); callers that take many orbits of one size pass one
    object to every call.
    """
    n = _require_contiguous(f)
    if relabels is None:
        relabels = Relabelings(n)
    varset = f.varset
    transversal = relabels.transversal(_twin_cells(f, relabels))
    return {_relabel(f, perm, images, varset) for perm, images in transversal}


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


def reduce_quotient(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Cancel the common disjoint-variable factors.

    A zero assignment only drops terms of a form, so both sides keep
    coefficients +-1 and content 1; there is no content to divide out.
    """
    if num.variables() & den.variables():
        n_sign, n_cont, n_factors = disjoint_factors(num)
        d_sign, d_cont, d_factors = disjoint_factors(den)
        shared = [q for q in n_factors if q in d_factors]
        if shared:
            for q in shared:
                n_factors.remove(q)
                d_factors.remove(q)
            num = MultiPoly.constant(n_sign * n_cont)
            for q in n_factors:
                num = num.mul_disjoint(q)
            den = MultiPoly.constant(d_sign * d_cont)
            for q in d_factors:
                den = den.mul_disjoint(q)
    return num, den


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
