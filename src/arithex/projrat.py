"""Exact arithmetic on the projectively extended rationals.

The value domain is Q extended by a single unsigned point at infinity.
Division by zero is defined (``x/0 = inf`` for nonzero ``x``) and the four
excluded combinations -- ``inf+inf``, ``inf-inf``, ``0*inf`` and ``0/0``
(``inf/inf`` reduces to ``0*inf``) -- produce the first-class result
``UNDEFINED`` instead of raising.  All operations are total and pure.

Finite values are ``fractions.Fraction`` instances, which already maintain
the reduced-form invariants (positive denominator, gcd-one, zero as 0/1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class _Infinity:
    """The unique unsigned point at infinity of the projective line."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"


class _Undefined:
    """Outcome of the four excluded operations; a value, never an error."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "undefined"


INF = _Infinity()
UNDEFINED = _Undefined()

ProjValue = Union[Fraction, _Infinity]
EvalResult = Union[Fraction, _Infinity, _Undefined]


def p_add(a: ProjValue, b: ProjValue) -> EvalResult:
    """Projective sum: finite+finite exact, finite+inf = inf, inf+inf undefined."""
    if isinstance(a, Fraction):
        return a + b if isinstance(b, Fraction) else INF
    return INF if isinstance(b, Fraction) else UNDEFINED


def p_sub(a: ProjValue, b: ProjValue) -> EvalResult:
    """Projective difference; x-inf = inf-x = inf for finite x, inf-inf undefined."""
    if isinstance(a, Fraction):
        return a - b if isinstance(b, Fraction) else INF
    return INF if isinstance(b, Fraction) else UNDEFINED


def p_mul(a: ProjValue, b: ProjValue) -> EvalResult:
    """Projective product; x*inf = inf for x != 0 (including inf), 0*inf undefined."""
    if isinstance(a, Fraction):
        if isinstance(b, Fraction):
            return a * b
        return UNDEFINED if a == 0 else INF
    if isinstance(b, Fraction):
        return UNDEFINED if b == 0 else INF
    return INF


def inv(a: ProjValue) -> ProjValue:
    """Total multiplicative inverse: inv(0) = inf, inv(inf) = 0."""
    if isinstance(a, Fraction):
        return INF if a == 0 else 1 / a
    return Fraction(0)


def p_div(a: ProjValue, b: ProjValue) -> EvalResult:
    """Projective quotient, defined as a * inv(b).

    Hence x/0 = inf for x != 0, x/inf = 0 for x != inf, while 0/0 and
    inf/inf are undefined.
    """
    return p_mul(a, inv(b))


def p_neg(a: ProjValue) -> ProjValue:
    """Negation; total because the projective line has one infinity."""
    return INF if isinstance(a, _Infinity) else -a


def fmt(x: EvalResult) -> str:
    """Render a result the way the CLI prints it: ``21``, ``2/3``, ``inf``, ``undefined``."""
    return str(x)
