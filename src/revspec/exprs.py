"""Closed-form expressions of one variable: parse, print, evaluate, differentiate.

Metric profiles are entered as text like ``10*(1-x^2)/(1+9*x^36)``.  The
language is a small arithmetic grammar:

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    exponent := '-'? integer-literal
    atom     := number | name | name '(' expr ')' | '(' expr ')'

Precedence is ``^`` > unary ``-`` > ``*``, ``/`` > ``+``, ``-``.  The known
functions are sqrt, sin, cos, exp and log; any other name must be the single
free variable of the expression.  Exponents are integer literals only, so
``u^n`` differentiates by the exact rule ``n*u^(n-1)*u'`` and endpoint values
of profile derivatives come out exact rather than through a numeric pow.

Design notes:

* Trees are frozen dataclasses, so structural equality is ``==`` and
  ``parse(to_string(e)) == e`` holds for every tree in normal form within
  the depth bound below (negative constants are represented as
  ``Neg(Const(...))``; ``differentiate`` only builds normal-form trees).
* There is no simplification pass.  Second derivatives of a quotient get
  large, but evaluation is vectorized over numpy arrays and stays cheap at
  the grid sizes used by the solver.
* Evaluation raises :class:`EvalDomainError` naming the offending
  subexpression for division by zero and for sqrt/log outside their domain.
* Printing, evaluation and differentiation recurse, so :func:`parse`
  refuses trees and parentheses nested deeper than :data:`MAX_DEPTH`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call", "Expr",
    "ExprError", "ExprSyntaxError", "UnknownIdentifierError",
    "NonIntegerExponentError", "EvalDomainError",
    "parse", "to_string", "evaluate", "differentiate", "FUNCTIONS",
    "MAX_DEPTH",
]

FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")

# Each level of a quotient adds three levels to its derivative, and printing
# takes two frames per level: 48 keeps the second derivative's ~600 frames
# under the default limit of 1000 with room for the caller's stack.
MAX_DEPTH = 48


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


class ExprError(Exception):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    """Parse failure.  Carries the byte offset and an expected-token hint."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class UnknownIdentifierError(ExprSyntaxError):
    pass


class NonIntegerExponentError(ExprSyntaxError):
    pass


class EvalDomainError(ExprError):
    """Evaluation hit a domain violation.  Names the offending subexpression."""

    def __init__(self, message: str, subexpression: str):
        self.subexpression = subexpression
        super().__init__(f"{message} in subexpression '{subexpression}'")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_WS_RE = re.compile(r"\s*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _WS_RE.match(text, pos).end()
        if pos >= n:
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unrecognized character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open_groups = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected {tok.text!r}", tok.offset, expected="end of input or operator")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expr:
        negations = 0
        while self.at_op("-"):
            self.advance()
            negations += 1
        e = self.power()
        for _ in range(negations):
            e = Neg(e)
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
            raise NonIntegerExponentError(
                "exponent must be an integer literal", tok.offset,
                expected="integer exponent")
        self.advance()
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text in FUNCTIONS:
                if not self.at_op("("):
                    nxt = self.peek()
                    raise ExprSyntaxError(
                        f"function {tok.text!r} must be applied",
                        nxt.offset, expected="'('")
                return Call(tok.text, self.group())
            if tok.text != self.var:
                raise UnknownIdentifierError(
                    f"unknown identifier {tok.text!r}", tok.offset,
                    expected=f"variable {self.var!r} or one of {', '.join(FUNCTIONS)}")
            return Var(tok.text)
        if self.at_op("("):
            return self.group()
        raise ExprSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.offset, expected="number, name, '-' or '('")

    def group(self) -> Expr:
        """``'(' expr ')'``; the parser recurses once per open group."""
        tok = self.advance()
        self.open_groups += 1
        if self.open_groups > MAX_DEPTH:
            raise ExprSyntaxError("parentheses nested too deeply", tok.offset,
                                  expected=f"at most {MAX_DEPTH} levels")
        e = self.expr()
        tok = self.peek()
        if not self.at_op(")"):
            raise ExprSyntaxError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.offset, expected="')'")
        self.advance()
        self.open_groups -= 1
        return e


def parse(text: str, var: str = "x") -> Expr:
    """Parse ``text`` into an expression tree over the single variable ``var``.

    Raises :class:`ExprSyntaxError` for trees deeper than :data:`MAX_DEPTH`.
    """
    e = _Parser(text, var).parse()
    if _depth(e) > MAX_DEPTH:
        raise ExprSyntaxError("expression nested too deeply", 0,
                              expected=f"at most {MAX_DEPTH} levels")
    return e


def _depth(e: Expr) -> int:
    """Levels of the tree, counted level by level without recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [getattr(node, child) for node in level
                 for child in ("arg", "base", "left", "right")
                 if hasattr(node, child)]
    return depth


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 9


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:
        # prints with a leading minus, so binds like an explicit negation
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expr, min_prec: int) -> str:
    s = to_string(e)
    return f"({s})" if _prec(e) < min_prec else s


def to_string(e: Expr) -> str:
    """Render with the minimal parentheses needed so that ``parse`` recovers ``e``."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    if isinstance(e, Add):
        return _wrap(e.left, _PREC_ADD) + "+" + _wrap(e.right, _PREC_ADD + 1)
    if isinstance(e, Sub):
        return _wrap(e.left, _PREC_ADD) + "-" + _wrap(e.right, _PREC_ADD + 1)
    if isinstance(e, Mul):
        return _wrap(e.left, _PREC_MUL) + "*" + _wrap(e.right, _PREC_MUL + 1)
    if isinstance(e, Div):
        return _wrap(e.left, _PREC_MUL) + "/" + _wrap(e.right, _PREC_MUL + 1)
    if isinstance(e, Pow):
        return _wrap(e.base, _PREC_ATOM) + "^" + str(e.exponent)
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _ev(e: Expr, x: np.ndarray):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_ev(e.arg, x)
    if isinstance(e, Add):
        return _ev(e.left, x) + _ev(e.right, x)
    if isinstance(e, Sub):
        return _ev(e.left, x) - _ev(e.right, x)
    if isinstance(e, Mul):
        return _ev(e.left, x) * _ev(e.right, x)
    if isinstance(e, Div):
        num = _ev(e.left, x)
        den = _ev(e.right, x)
        if np.any(np.asarray(den) == 0.0):
            raise EvalDomainError("division by zero", to_string(e))
        return num / den
    if isinstance(e, Pow):
        base = _ev(e.base, x)
        if e.exponent < 0 and np.any(np.asarray(base) == 0.0):
            raise EvalDomainError("zero base with negative exponent", to_string(e))
        return base ** e.exponent
    if isinstance(e, Call):
        arg = _ev(e.arg, x)
        a = np.asarray(arg)
        if e.func == "sqrt":
            if np.any(a < 0.0):
                raise EvalDomainError("sqrt of negative argument", to_string(e))
            return np.sqrt(arg)
        if e.func == "sin":
            return np.sin(arg)
        if e.func == "cos":
            return np.cos(arg)
        if e.func == "exp":
            return np.exp(arg)
        if e.func == "log":
            if np.any(a <= 0.0):
                raise EvalDomainError("log of non-positive argument", to_string(e))
            return np.log(arg)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, x):
    """Evaluate ``e`` at ``x`` (scalar or ndarray; vectorized, pure).

    Returns a float for scalar input and an array matching ``x`` otherwise.
    Overflow and invalid operations give inf/nan quietly, not a numpy
    warning: the callers' finiteness checks report them as one failure.
    """
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        res = _ev(e, arr)
    if arr.ndim == 0:
        return float(res)
    out = np.asarray(res, dtype=float)
    if out.shape != arr.shape:
        out = np.broadcast_to(out, arr.shape).copy()
    return out


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _const(v: float) -> Expr:
    # keep constants non-negative so printed trees reparse to themselves
    return Neg(Const(float(-v))) if v < 0 else Const(float(v))


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative.  Closed over the grammar; no simplification."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg))
    if isinstance(e, Add):
        return Add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return Sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return Add(Mul(differentiate(e.left), e.right),
                   Mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        num = Sub(Mul(differentiate(e.left), e.right),
                  Mul(e.left, differentiate(e.right)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        factor = Mul(_const(e.exponent), Pow(e.base, e.exponent - 1))
        return Mul(factor, differentiate(e.base))
    if isinstance(e, Call):
        du = differentiate(e.arg)
        if e.func == "sqrt":
            return Div(du, Mul(Const(2.0), Call("sqrt", e.arg)))
        if e.func == "sin":
            return Mul(Call("cos", e.arg), du)
        if e.func == "cos":
            return Neg(Mul(Call("sin", e.arg), du))
        if e.func == "exp":
            return Mul(Call("exp", e.arg), du)
        if e.func == "log":
            return Div(du, e.arg)
    raise TypeError(f"not an expression node: {e!r}")
