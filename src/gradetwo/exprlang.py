"""Tiny total expression language for boundary/forcing data in config files.

Grammar (precedence low to high, ``^`` is right-associative)::

    sum     := product (("+" | "-") product)*
    product := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?
    atom    := NUMBER | "x" | "y" | "pi" | FUNC "(" sum ")" | "(" sum ")"
    FUNC    := "sin" | "cos" | "exp" | "sqrt" | "abs"

Expressions are pure and total: evaluation either returns a finite float or
raises :class:`DomainError`.  ASTs are immutable and hashable, and printing
followed by re-parsing reproduces the AST exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "Expr", "Num", "Var", "Unary", "Bin", "Call",
    "parse", "evaluate", "to_string",
    "ExprSyntaxError", "DomainError",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")


class ExprSyntaxError(ValueError):
    """Parse failure; carries the byte offset and the expected token set."""

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected one of "
            f"{', '.join(self.expected)}; found {found!r}"
        )


class DomainError(ArithmeticError):
    """Evaluation left the real domain (division by zero, sqrt of a
    negative number, overflow to non-finite)."""


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "x", "y" or "pi"


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-"
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # "+", "-", "*", "/", "^"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    """Yield (kind, value, offset) triples; kind in num/name/op/end."""
    pos = 0
    tokens = []
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace manually to report the true offset
            k = pos
            while k < n and text[k].isspace():
                k += 1
            if k == n:
                break
            raise ExprSyntaxError(k, {"number", "name", "operator"}, text[k])
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, val, off = self.peek()
        found = val if kind != "end" else "<end of input>"
        raise ExprSyntaxError(off, expected, found)

    def expect_op(self, op):
        kind, val, _ = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        self.fail({repr(op)})

    def parse(self):
        node = self.sum()
        kind, _, _ = self.peek()
        if kind != "end":
            self.fail({"'+'", "'-'", "'*'", "'/'", "'^'", "<end of input>"})
        return node

    def sum(self):
        node = self.product()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Bin(val, node, self.product())
            else:
                return node

    def product(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Unary("-", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # recurse through unary so "2^-3" works and "^" right-associates
            node = Bin("^", node, self.unary())
        return node

    def atom(self):
        kind, val, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(val))
        if kind == "name":
            self.advance()
            if val in ("x", "y", "pi"):
                return Var(val)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(val, arg)
            raise ExprSyntaxError(
                off, {"'x'", "'y'", "'pi'"} | {f"'{f}'" for f in FUNCTIONS}, val
            )
        if kind == "op" and val == "(":
            self.advance()
            node = self.sum()
            self.expect_op(")")
            return node
        self.fail({"number", "'x'", "'y'", "'pi'", "function", "'('", "'-'"})


def parse(text):
    """Parse ``text`` into an :class:`Expr`.

    Raises :class:`ExprSyntaxError` with the byte offset of the first
    unexpected token and the set of tokens that would have been accepted.
    """
    if not isinstance(text, str):
        raise TypeError("expression source must be str")
    return _Parser(text).parse()


_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "abs": abs,
}


def evaluate(expr, x, y):
    """Evaluate ``expr`` at the point (x, y) in IEEE double precision.

    Raises :class:`DomainError` whenever the value leaves the finite reals.
    """
    v = _eval(expr, float(x), float(y))
    if not math.isfinite(v):
        raise DomainError(f"non-finite result {v!r}")
    return v


def _eval(expr, x, y):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name == "x":
            return x
        if expr.name == "y":
            return y
        return math.pi
    if isinstance(expr, Unary):
        return -_eval(expr.arg, x, y)
    if isinstance(expr, Bin):
        a = _eval(expr.left, x, y)
        b = _eval(expr.right, x, y)
        op = expr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            return a / b
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{a!r} ^ {b!r}: {exc}") from exc
    if isinstance(expr, Call):
        a = _eval(expr.arg, x, y)
        if expr.func == "sqrt" and a < 0.0:
            raise DomainError(f"sqrt of negative number {a!r}")
        try:
            return _FUNC_IMPL[expr.func](a)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{expr.func}({a!r}): {exc}") from exc
    raise TypeError(f"not an Expr node: {expr!r}")


# precedence levels used for minimal parenthesisation when printing
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "unary": 3, "^": 4, "atom": 5}


def to_string(expr):
    """Render ``expr`` as source text; ``parse(to_string(e)) == e``."""
    return _print(expr, 0)


def _print(expr, parent_level):
    if isinstance(expr, Num):
        text, level = repr(expr.value), _LEVEL["atom"]
    elif isinstance(expr, Var):
        text, level = expr.name, _LEVEL["atom"]
    elif isinstance(expr, Call):
        text = f"{expr.func}({_print(expr.arg, 0)})"
        level = _LEVEL["atom"]
    elif isinstance(expr, Unary):
        level = _LEVEL["unary"]
        text = "-" + _print(expr.arg, level)
    elif isinstance(expr, Bin):
        level = _LEVEL[expr.op]
        if expr.op == "^":
            # right-associative; the right child re-enters via unary level
            left = _print(expr.left, level + 1)
            right = _print(expr.right, _LEVEL["unary"])
            text = f"{left}^{right}"
        else:
            left = _print(expr.left, level)
            # left-associative: the right child must bind strictly tighter
            right = _print(expr.right, level + 1)
            text = f"{left}{expr.op}{right}"
    else:
        raise TypeError(f"not an Expr node: {expr!r}")
    if level < parent_level:
        return f"({text})"
    return text
