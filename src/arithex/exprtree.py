"""Concrete syntax for expressions: parsing, printing, evaluation, lowering.

Grammar (left-associative, whitespace ignored)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := variable | '(' expr ')'
    variable := 'x' positive-integer

There are no constants and no unary minus: the expression universe is
built from single-use variables and the four binary operators only, so
both are rejected with a diagnostic rather than accepted and mangled.
Multiplication requires an explicit ``*``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping, Union

from . import canon
from .canon import CanonForm
from .errors import InputError
from .projrat import EvalResult, UNDEFINED, ProjValue, p_add, p_div, p_mul, p_sub


# deepest nesting parse accepts, of parentheses and of operators on a path of
# the tree: the parser and the tree walks recurse once per level
MAX_DEPTH = 200

# most terms parse accepts in the numerator or the denominator of the
# canonical form: a product of k two-variable sums has 2^k, and k = 17
# takes about a second to expand
MAX_TERMS = 2 ** 17


class ExprSyntaxError(InputError):
    """Malformed input; carries the offset and what was expected there."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f", found {found!r}" if found else ""
        super().__init__(f"at position {position}: expected {expected}{detail}")


class EmptyInput(ExprSyntaxError):
    def __init__(self):
        super().__init__(0, "an expression")


class DuplicateVariable(InputError):
    """A variable may be used only once in the whole expression."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"variable x{index} used more than once")


class DependencyLoss(RuntimeError):
    """Lowering dropped a variable; would contradict the construction rules."""


@dataclass(frozen=True, slots=True)
class Var:
    index: int


@dataclass(frozen=True, slots=True)
class Node:
    op: str
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Union[Var, Node]

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # parentheses open at pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> ExprTree:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = Node(op, node, self.term())
        return node

    def term(self) -> ExprTree:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = Node(op, node, self.factor())
        return node

    def factor(self) -> ExprTree:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_DEPTH:
                raise InputError(f"expression nests more than {MAX_DEPTH} parentheses deep")
            self.pos += 1
            self.depth += 1
            node = self.expr()
            if self.peek() != ")":
                raise ExprSyntaxError(self.pos, "')'", self.peek())
            self.pos += 1
            self.depth -= 1
            return node
        if ch == "x":
            return self.variable()
        if ch == "-":
            raise ExprSyntaxError(
                self.pos, "a variable or '(' (unary minus is not part of the language)", ch
            )
        if ch.isdigit():
            raise ExprSyntaxError(
                self.pos, "a variable or '(' (constants are not part of the language)", ch
            )
        raise ExprSyntaxError(self.pos, "a variable or '('", ch)

    def variable(self) -> Var:
        start = self.pos
        self.pos += 1  # consume 'x'
        digits = ""
        # ASCII only: str.isdigit also accepts digits that int() rejects, like '²'
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            digits += self.text[self.pos]
            self.pos += 1
        limit = sys.get_int_max_str_digits()  # int() converts no more digits
        if 0 < limit < len(digits):
            raise ExprSyntaxError(start + 1, f"a variable index of at most {limit} digits")
        if not digits or int(digits) < 1:
            raise ExprSyntaxError(start + 1, "a positive variable index", digits or self.peek())
        return Var(int(digits))


def parse(text: str) -> ExprTree:
    """Parse the grammar above, enforcing the single-use rule, MAX_DEPTH and
    MAX_TERMS."""
    parser = _Parser(text)
    parser.skip_ws()
    if parser.pos >= len(text):
        raise EmptyInput()
    tree = parser.expr()
    parser.skip_ws()
    if parser.pos < len(text):
        raise ExprSyntaxError(parser.pos, "end of input or an operator", text[parser.pos])
    seen: set = set()
    for idx in _iter_var_indices(tree):
        if idx in seen:
            raise DuplicateVariable(idx)
        seen.add(idx)
    term_counts(tree)
    return tree


def _iter_var_indices(t: ExprTree, depth: int = 0):
    if isinstance(t, Var):
        yield t.index
    elif depth == MAX_DEPTH:  # depth operators above t, and t is one more
        raise InputError(f"expression nests more than {MAX_DEPTH} operators deep")
    else:
        yield from _iter_var_indices(t.left, depth + 1)
        yield from _iter_var_indices(t.right, depth + 1)


def term_counts(t: ExprTree) -> tuple:
    """The term counts (numerator, denominator) of ``to_canon(t)``, from the
    tree alone: no two monomials merge when forms combine (``canon``), so
    + and - give (n1*d2 + n2*d1, d1*d2), * gives (n1*n2, d1*d2) and / gives
    (n1*d2, d1*n2).  No count is below an operand's, so a count above
    MAX_TERMS anywhere is an input error, raised where it is found."""
    if isinstance(t, Var):
        return 1, 1
    n1, d1 = term_counts(t.left)
    n2, d2 = term_counts(t.right)
    if t.op == "*":
        counts = n1 * n2, d1 * d2
    elif t.op == "/":
        counts = n1 * d2, d1 * n2
    else:
        counts = n1 * d2 + n2 * d1, d1 * d2
    if max(counts) > MAX_TERMS:
        raise InputError(f"expression expands to more than {MAX_TERMS} terms")
    return counts


def tree_variables(t: ExprTree) -> frozenset:
    return frozenset(_iter_var_indices(t))


def pretty(t: ExprTree) -> str:
    """Minimal-parentheses rendering; parse(pretty(t)) rebuilds t exactly.

    Right operands at equal precedence keep their parentheses because the
    grammar is left-associative.
    """
    if isinstance(t, Var):
        return f"x{t.index}"
    prec = _PRECEDENCE[t.op]
    left = pretty(t.left)
    if isinstance(t.left, Node) and _PRECEDENCE[t.left.op] < prec:
        left = f"({left})"
    right = pretty(t.right)
    if isinstance(t.right, Node) and _PRECEDENCE[t.right.op] <= prec:
        right = f"({right})"
    return f"{left}{t.op}{right}"


_TREE_OPS = {"+": p_add, "-": p_sub, "*": p_mul, "/": p_div}


def eval_tree(t: ExprTree, point: Mapping[int, ProjValue]) -> EvalResult:
    """Bottom-up projective evaluation; UNDEFINED propagates."""
    if isinstance(t, Var):
        try:
            return point[t.index]
        except KeyError:
            from .mpoly import MissingAssignment

            raise MissingAssignment(t.index) from None
    a = eval_tree(t.left, point)
    if a is UNDEFINED:
        return UNDEFINED
    b = eval_tree(t.right, point)
    if b is UNDEFINED:
        return UNDEFINED
    return _TREE_OPS[t.op](a, b)


def to_canon(t: ExprTree) -> CanonForm:
    """Fold the tree into its canonical form, checking no variable is lost."""
    form = _fold(t)
    depends_on = form.num.variables() | form.den.variables()
    if depends_on != tree_variables(t):
        raise DependencyLoss(
            f"form depends on {sorted(depends_on)} but tree uses {sorted(tree_variables(t))}"
        )
    return form


def _fold(t: ExprTree) -> CanonForm:
    if isinstance(t, Var):
        return canon.atom(t.index)
    return canon.combine(t.op, _fold(t.left), _fold(t.right))
