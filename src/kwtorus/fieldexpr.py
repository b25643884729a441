"""Closed-form expression parsing and evaluation on periodic grids.

Grammar (standard precedence, ^ binds tightest and associates right):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the constants pi and e, the variables x0..x3, and the
functions sin, cos, exp, log, abs, tanh.  There is no implicit
multiplication.  Syntax errors carry the 0-based byte offset of the
failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError
from .grid import GridSpec, ScalarField

FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "tanh")
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = {"x0": 0, "x1": 1, "x2": 2, "x3": 3}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Neg:
    operand: "FieldExpr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "FieldExpr"
    right: "FieldExpr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "FieldExpr"


FieldExpr = Num | Const | Var | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kinds: num, ident, op."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lexeme = text[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {lexeme!r}", i)
            tokens.append(("num", lexeme, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, txt, off = self.peek()
        if kind != "op" or txt != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.pos += 1

    def parse(self) -> FieldExpr:
        node = self.expr()
        kind, txt, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {txt!r}", off)
        return node

    def expr(self) -> FieldExpr:
        node = self.term()
        while True:
            kind, txt, _ = self.peek()
            if kind == "op" and txt in "+-":
                self.pos += 1
                node = BinOp(txt, node, self.term())
            else:
                return node

    def term(self) -> FieldExpr:
        node = self.unary()
        while True:
            kind, txt, _ = self.peek()
            if kind == "op" and txt in "*/":
                self.pos += 1
                node = BinOp(txt, node, self.unary())
            else:
                return node

    def unary(self) -> FieldExpr:
        kind, txt, _ = self.peek()
        if kind == "op" and txt == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.power()

    def power(self) -> FieldExpr:
        base = self.atom()
        kind, txt, _ = self.peek()
        if kind == "op" and txt == "^":
            self.pos += 1
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> FieldExpr:
        kind, txt, off = self.take()
        if kind == "num":
            return Num(float(txt))
        if kind == "ident":
            if txt in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(txt, arg)
            if txt in CONSTANTS:
                return Const(txt)
            if txt in VARIABLES:
                return Var(VARIABLES[txt])
            raise ExprSyntaxError(f"unknown identifier {txt!r}", off)
        if kind == "op" and txt == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a value", off)


def parse(text: str) -> FieldExpr:
    """Parse expression text into an abstract syntax tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(expr: FieldExpr) -> str:
    """Canonical text form; parse(to_text(parse(s))) == parse(s)."""
    return _print(expr, 0)


def _print(expr: FieldExpr, parent_prec: int) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Call):
        return f"{expr.func}({_print(expr.arg, 0)})"
    if isinstance(expr, Neg):
        inner = _print(expr.operand, _PREC["neg"])
        out = f"-{inner}"
        return f"({out})" if parent_prec > _PREC["neg"] else out
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        if expr.op == "^":
            # right-associative; exponent prints at unary level
            left = _print(expr.left, prec + 1)
            right = _print(expr.right, _PREC["neg"])
        else:
            left = _print(expr.left, prec)
            right = _print(expr.right, prec + 1)
        out = f"{left}{expr.op}{right}"
        return f"({out})" if parent_prec > prec else out
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

def evaluate(expr: FieldExpr, spec: GridSpec) -> ScalarField:
    """Evaluate an expression on every grid point of spec.

    An expression that evaluates to one number (no variable survives)
    gives a read-only field: that number broadcast with zero strides, as
    grid.make_field gives.  Any other expression is materialized as a
    full, writable, C-contiguous array.

    Raises ExprEvalError for variables beyond the grid rank, departures
    from the real domain (log of a non-positive value, negative base with
    non-integer exponent, division by zero), and non-finite results.
    """
    with np.errstate(all="ignore"):
        values = np.asarray(_eval(expr, spec), dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ExprEvalError("expression produced non-finite values (overflow?)")
    full = np.broadcast_to(values, spec.dims)
    return ScalarField(spec, full if values.ndim == 0 else full.copy())


def _eval(expr: FieldExpr, spec: GridSpec):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Const):
        return CONSTANTS[expr.name]
    if isinstance(expr, Var):
        if expr.index >= spec.rank:
            raise ExprEvalError(
                f"variable x{expr.index} needs rank > {expr.index}, grid has rank {spec.rank}"
            )
        return spec.coords()[expr.index]
    if isinstance(expr, Neg):
        return -_eval(expr.operand, spec)
    if isinstance(expr, Call):
        arg = _eval(expr.arg, spec)
        if expr.func == "log":
            if np.min(arg) <= 0.0:
                raise ExprEvalError("log of non-positive value")
            return np.log(arg)
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
              "abs": np.abs, "tanh": np.tanh}[expr.func]
        return fn(arg)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, spec)
        right = _eval(expr.right, spec)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if np.any(right == 0.0):
                raise ExprEvalError("division by zero")
            return left / right
        if expr.op == "^":
            neg_base = np.min(left) < 0.0
            if neg_base and np.any(np.asarray(right) != np.floor(right)):
                raise ExprEvalError("negative base with non-integer exponent")
            return np.power(left, right)
    raise TypeError(f"not an expression node: {expr!r}")
