"""Exact enumeration, classification and puzzle solving for single-use
arithmetic expressions over the projectively extended rationals."""

from .canon import (
    CanonForm,
    apply_perm,
    assign_zero,
    atom,
    combine,
    eval_form,
    form_str,
    is_isomorphic,
    is_monic_form,
    negate,
    orbit_key,
)
from .counting import CategoryTable, class_counts, total_nonisomorphic, worked_breakdown
from .errors import InputError
from .exprtree import ExprTree, eval_tree, parse, pretty, to_canon
from .mpoly import MultiPoly
from .oracle import generate, verify
from .projrat import INF, UNDEFINED, p_add, p_div, p_mul, p_neg, p_sub
from .solver import class_uniqueness, make_query, solve

__version__ = "0.1.0"

__all__ = [
    "CanonForm",
    "CategoryTable",
    "ExprTree",
    "INF",
    "InputError",
    "MultiPoly",
    "UNDEFINED",
    "apply_perm",
    "assign_zero",
    "atom",
    "class_counts",
    "class_uniqueness",
    "combine",
    "eval_form",
    "eval_tree",
    "form_str",
    "generate",
    "is_isomorphic",
    "is_monic_form",
    "make_query",
    "negate",
    "orbit_key",
    "p_add",
    "p_div",
    "p_mul",
    "p_neg",
    "p_sub",
    "parse",
    "pretty",
    "solve",
    "to_canon",
    "total_nonisomorphic",
    "verify",
    "worked_breakdown",
]
