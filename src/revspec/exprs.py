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
* :func:`differentiate` leaves out the terms that a zero derivative or a
  unit factor makes dead and simplifies nothing else, so f' and f'' keep
  the textbook rules' values bit for bit wherever those are finite, up to
  the sign of an exact zero.  Second derivatives of a quotient still get
  large: the f'' of ``10*(1 - x^2)/(1 + 9*x^36)`` has 116 nodes (278 with
  the dead terms), 42 distinct subtrees.  :func:`evaluate` compiles a tree
  once into a flat program with one slot per distinct subtree, 35
  instructions for that f'' (68 with the dead terms), and runs it
  vectorized over numpy arrays, so each is computed once per call, with
  the tree's own operations and operand order: the values are those of a
  node-by-node walk, bit for bit.
* An integer power ``u^n`` of a non-constant ``u``, with ``n`` outside
  -1..2, is computed as ``|u|^n`` with the sign of ``u`` put back for odd
  ``n``; a scalar ``x`` runs as a one-element array, so it meets the same
  kernels.  numpy runs its SIMD ``power`` only on chunks whose bases are all
  nonnegative and calls libm ``pow`` element by element elsewhere: on an
  AVX-512 host a raw ``x^36`` over ``[-1, 1]`` costs about 20 times
  ``|x|^36``.  ``(-u)^n = (-1)^n |u|^n`` exactly, so a rational tree
  whose every subtree is even or odd in ``x``, like the paper's example
  and its derivatives, gives exactly mirror-symmetric values; a negative
  base's power may differ by one ulp from libm's ``pow``.  Exponents -1
  to 2 and Python floats keep ``**``.
* Evaluation raises :class:`EvalDomainError` naming the offending
  subexpression for division by zero, a zero base with a negative
  exponent, and sqrt/log outside their domain: the first failing node in
  post-order, as a node-by-node walk would find it.  Subtrees of constants
  alone run on Python floats, so a power among them that leaves the float
  range raises it too ("overflow"), where numpy would give inf.
* Printing and differentiation recurse, so :func:`parse` refuses trees and
  parentheses nested deeper than :data:`MAX_DEPTH`.  Compiling walks the
  tree with an explicit stack.
"""

from __future__ import annotations

import math
import operator
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
# Evaluation does not recurse; printing and differentiation do.
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
        level = [child for node in level for child in _children(node)]
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

def _any_zero(u) -> bool:
    return (u == 0.0).any() if isinstance(u, np.ndarray) else u == 0.0


def _any_negative(u) -> bool:
    return (u < 0.0).any() if isinstance(u, np.ndarray) else u < 0.0


def _any_nonpositive(u) -> bool:
    return (u <= 0.0).any() if isinstance(u, np.ndarray) else u <= 0.0


def _power(u, n: int):
    """``u ** n`` for an integer ``n`` outside -1..2, as ``|u|^n`` with the
    sign of ``u`` put back for odd ``n``: numpy's SIMD ``power`` takes only
    nonnegative bases (see the module notes).  No more temporaries than
    ``u ** n``.  Python floats keep ``**``, which raises OverflowError where
    numpy would give inf.
    """
    if not isinstance(u, np.ndarray):
        return u ** n
    out = np.abs(u)
    np.power(out, n, out=out)
    return np.copysign(out, u, out=out) if n & 1 else out


_OPERATORS = {Neg: operator.neg, Add: operator.add, Sub: operator.sub,
              Mul: operator.mul, Div: operator.truediv, Pow: operator.pow}
# per call: the check on its argument and the message when it fails
_CALL_DOMAINS = {"sqrt": (_any_negative, "sqrt of negative argument"),
                 "log": (_any_nonpositive, "log of non-positive argument")}


def _children(e: Expr) -> tuple:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, Neg) or isinstance(e, Call) and e.func in FUNCTIONS:
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Const, Var)):
        return ()
    raise TypeError(f"not an expression node: {e!r}")


@dataclass(frozen=True)
class _Program:
    """A tree as a flat list of instructions over value slots.

    Slot 0 holds ``x`` and slots ``1..len(consts)`` the constants, integer
    exponents among them; instruction ``i`` writes slot
    ``1 + len(consts) + i``.  Each is ``(fn, a, b, bad, t)``: it computes
    ``fn(v[a])``, or ``fn(v[a], v[b])`` when ``b >= 0``, after raising
    :class:`EvalDomainError` with ``errors[i]`` if ``bad(v[t])`` holds.
    Instructions come in post-order of the tree's first occurrences, so
    the first check that fails is the recursive walk's first.
    """

    consts: tuple
    code: tuple
    errors: tuple  # (message, node) per instruction, for the domain checks
    result: int


def _post_order(e: Expr) -> list:
    """The distinct node objects of ``e`` in post-order of their first
    occurrence, walked without recursion."""
    seen: set[int] = set()  # ids; the tree keeps its nodes alive
    order = []
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in seen:
            stack.pop()
            continue
        pending = [c for c in _children(node) if id(c) not in seen]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        seen.add(id(node))
        order.append(node)
    return order


def _instruction(node: Expr, args: tuple) -> tuple:
    """``(fn, a, b, bad, t)`` and the domain message of one operation node
    whose operands sit in slots ``args``."""
    a, b = args if len(args) == 2 else (args[0], -1)
    bad, t, message = None, a, ""
    if isinstance(node, Div):
        bad, t, message = _any_zero, b, "division by zero"
    elif isinstance(node, Pow) and node.exponent < 0:
        bad, message = _any_zero, "zero base with negative exponent"
    elif isinstance(node, Call):
        bad, message = _CALL_DOMAINS.get(node.func, (None, ""))
    fn = getattr(np, node.func) if isinstance(node, Call) else _OPERATORS[type(node)]
    # numpy computes u^-1 to u^2 exactly and fast, whatever the sign of u
    if isinstance(node, Pow) and not -1 <= node.exponent <= 2:
        fn = _power
    return (fn, a, b, bad, t), message


def _compile(e: Expr) -> _Program:
    """Structurally equal subtrees get one slot, keyed by node type and the
    slots of their children."""
    nodes = _post_order(e)
    # constants and exponents by repr, which tells apart what == does not:
    # 0.0 and -0.0
    consts: dict[str, object] = {}
    for node in nodes:
        if isinstance(node, (Const, Pow)):
            value = node.value if isinstance(node, Const) else node.exponent
            consts.setdefault(repr(value), value)
    const_slot = {text: i for i, text in enumerate(consts, start=1)}
    slot_of: dict[int, int] = {}  # id(node) -> slot
    slot_by_key: dict[tuple, int] = {}
    code, errors = [], []
    for node in nodes:
        if isinstance(node, Var):
            slot = 0
        elif isinstance(node, Const):
            slot = const_slot[repr(node.value)]
        else:
            args = tuple(slot_of[id(c)] for c in _children(node))
            if isinstance(node, Pow):
                args += (const_slot[repr(node.exponent)],)
            key = (type(node), getattr(node, "func", None)) + args
            slot = slot_by_key.get(key)
            if slot is None:
                slot = slot_by_key[key] = 1 + len(consts) + len(code)
                instruction, message = _instruction(node, args)
                code.append(instruction)
                errors.append((message, node))
        slot_of[id(node)] = slot
    return _Program(tuple(consts.values()), tuple(code), tuple(errors),
                    slot_of[id(e)])


def _run(program: _Program, x):
    v = [x, *program.consts]
    push = v.append
    try:
        for fn, a, b, bad, t in program.code:
            if bad is not None and bad(v[t]):
                message, node = program.errors[len(v) - 1 - len(program.consts)]
                raise EvalDomainError(message, to_string(node))
            push(fn(v[a]) if b < 0 else fn(v[a], v[b]))
    except OverflowError:
        # only Python floats raise it: a power of constants alone
        _, node = program.errors[len(v) - 1 - len(program.consts)]
        raise EvalDomainError("overflow", to_string(node)) from None
    return v[program.result]


def evaluate(e: Expr, x):
    """Evaluate ``e`` at ``x`` (scalar or ndarray; vectorized, pure).

    The first call compiles ``e`` into a flat program, kept on the tree,
    that computes each distinct subtree once; every call runs it over
    ``x`` with the ufuncs and operand order of the tree itself, so shared
    subtrees change no bit of the result.  An array's integer powers
    ``u^n`` (``n`` outside -1..2) raise ``|u|`` and restore the sign for
    odd ``n``, on numpy's vectorized path: ``u^n`` at ``-u`` is ``(-1)^n``
    times its value at ``u``, bit for bit.  A scalar runs as a one-element
    array, on the same ufunc loops, so it gives the bits an array holding
    it gives.  Returns a float for scalar input and an array matching
    ``x`` otherwise.  Overflow and invalid operations give inf/nan
    quietly, not a numpy warning: the callers' finiteness checks report
    them as one failure.
    """
    try:
        program = e._program
    except AttributeError:
        program = _compile(e)
        # frozen, so set past the dataclass guard; no field, so == ignores it
        object.__setattr__(e, "_program", program)
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        res = _run(program, arr.reshape(1) if arr.ndim == 0 else arr)
    out = np.asarray(res, dtype=float)
    if arr.ndim == 0:
        return out.item(0)
    if out.shape != arr.shape:
        out = np.broadcast_to(out, arr.shape).copy()
    return out


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _const(v: float) -> Expr:
    # keep constants non-negative so printed trees reparse to themselves
    return Neg(Const(float(-v))) if v < 0 else Const(float(v))


# node constructors that leave out what a 0 or 1 operand makes dead; ``==``
# compares values, so a ``Const(-0.0)`` operand counts as zero
_ZERO, _ONE = Const(0.0), Const(1.0)


def _neg(u: Expr) -> Expr:
    return _ZERO if u == _ZERO else Neg(u)


def _add(u: Expr, v: Expr) -> Expr:
    return v if u == _ZERO else u if v == _ZERO else Add(u, v)


def _sub(u: Expr, v: Expr) -> Expr:
    return u if v == _ZERO else _neg(v) if u == _ZERO else Sub(u, v)


def _mul(u: Expr, v: Expr) -> Expr:
    if u == _ZERO or v == _ZERO:
        return _ZERO
    return v if u == _ONE else u if v == _ONE else Mul(u, v)


def _div(u: Expr, v: Expr) -> Expr:
    return _ZERO if u == _ZERO else Div(u, v)


def _pow(u: Expr, n: int) -> Expr:
    return u if n == 1 else _ONE if n == 0 else Pow(u, n)


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative, closed over the grammar, without dead terms.

    Where an operand is a ``Const`` of value 0 or 1, ``0*y``, ``y*0`` and a
    quotient ``0/y`` become ``0``; ``y*1``, ``1*y``, ``y + 0``, ``0 + y``
    and ``y - 0`` become ``y``; ``0 - y`` becomes ``-y`` and ``-0`` becomes
    ``0``; a factor ``u^1`` or ``u^0`` becomes ``u`` or ``1``.  Nothing else
    is simplified.  Wherever the dropped subtrees are finite, the kept terms
    run the textbook rules' operations on the same operands in the same
    order, so the values agree bit for bit, up to the sign of an exact zero.
    Where a dropped factor is not finite the textbook value is nan
    (``0*inf``), and where a dropped quotient's divisor is zero it raised.
    """
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.left), e.right),
                    _mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(differentiate(e.left), e.right),
                   _mul(e.left, differentiate(e.right)))
        return _div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return _ZERO
        factor = _mul(_const(e.exponent), _pow(e.base, e.exponent - 1))
        return _mul(factor, differentiate(e.base))
    if isinstance(e, Call):
        du = differentiate(e.arg)
        if e.func == "sqrt":
            return _div(du, Mul(Const(2.0), Call("sqrt", e.arg)))
        if e.func == "sin":
            return _mul(Call("cos", e.arg), du)
        if e.func == "cos":
            return _neg(_mul(Call("sin", e.arg), du))
        if e.func == "exp":
            return _mul(Call("exp", e.arg), du)
        if e.func == "log":
            return _div(du, e.arg)
    raise TypeError(f"not an expression node: {e!r}")
