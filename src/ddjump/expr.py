"""Closed mini-language for rate functions.

Expressions are built from variables ``x1 .. xd``, named scalar parameters,
float literals, and the operators ``+ - * /`` plus nonnegative integer powers
(``^`` or ``**``).  No user code is ever executed: the parser only produces
the node types below, and the numpy code generator only emits arithmetic on
those nodes.

Grammar (used by :func:`parse_expr`)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom (('^' | '**') INT)?
    atom    := NUMBER | NAME | '(' expr ')'

``x<k>`` names (k = 1..d, no leading zero) are variables; every other name
must be a bound parameter.

Rates, drift and rate gradients are compiled once per model from
:func:`codegen` output, in ``model._compile_kernel``, the only caller of
:func:`differentiate`.  Integer exponents are chained multiplications.  The
tests check the generated code bit for bit against a tree interpreter kept
as their oracle (``tests/expr_reference.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DimensionMismatchError, ExprSyntaxError, UnknownParameterError


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int  # >= 0


# binary node types and their infix operators
_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)

_VAR_RE = re.compile(r"^x([1-9]\d*)$")

MAX_EXPONENT = 999


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", col=col)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num") + 1))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text, dim, param_names):
        self.text = text
        self.dim = dim
        self.param_names = frozenset(param_names)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, col = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", col=col)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", col=col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, col = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.advance()
            nkind, nval, ncol = self.peek()
            if nkind != "num":
                raise ExprSyntaxError("exponent must be a nonnegative integer literal", col=ncol)
            self.advance()
            as_float = float(nval)
            if as_float != int(as_float):
                raise ExprSyntaxError("exponent must be an integer", col=ncol)
            n = int(as_float)
            if n > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent {n} exceeds the maximum {MAX_EXPONENT}", col=ncol)
            return Pow(node, n)
        return node

    def atom(self):
        kind, val, col = self.advance()
        if kind == "num":
            return Const(float(val))
        if kind == "name":
            m = _VAR_RE.match(val)
            if m:
                k = int(m.group(1))
                if k > self.dim:
                    raise DimensionMismatchError(
                        f"variable {val} out of range for dimension {self.dim}", col=col
                    )
                return Var(k - 1)
            if val in self.param_names:
                return Param(val)
            raise UnknownParameterError(f"unknown parameter {val!r}", col=col)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of expression", col=col)


def parse_expr(text, dim, param_names):
    """Parse ``text`` into an expression tree, binding names eagerly."""
    return _Parser(text, dim, param_names).parse()


def _const(v):
    return Const(float(v))


def _is_const(node, v=None):
    return isinstance(node, Const) and (v is None or node.value == v)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value - b.value)
    if _is_const(a, 0.0):
        return Neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value * b.value)
    return Mul(a, b)


def differentiate(node, index):
    """Partial derivative with respect to variable ``index`` (0-based).

    Light constant folding keeps derivatives of constant and affine rates
    exactly ``Const(0.0)`` / constant nodes.
    """
    if isinstance(node, (Const, Param)):
        return _const(0.0)
    if isinstance(node, Var):
        return _const(1.0 if node.index == index else 0.0)
    if isinstance(node, Add):
        return _add(differentiate(node.left, index), differentiate(node.right, index))
    if isinstance(node, Sub):
        return _sub(differentiate(node.left, index), differentiate(node.right, index))
    if isinstance(node, Mul):
        da = differentiate(node.left, index)
        db = differentiate(node.right, index)
        return _add(_mul(da, node.right), _mul(node.left, db))
    if isinstance(node, Div):
        da = differentiate(node.left, index)
        db = differentiate(node.right, index)
        num = _sub(_mul(da, node.right), _mul(node.left, db))
        return Div(num, Pow(node.right, 2))
    if isinstance(node, Neg):
        return _sub(_const(0.0), differentiate(node.operand, index))
    if isinstance(node, Pow):
        if node.exponent == 0:
            return _const(0.0)
        db = differentiate(node.base, index)
        if node.exponent == 1:
            return db
        return _mul(_mul(_const(float(node.exponent)), Pow(node.base, node.exponent - 1)), db)
    raise TypeError(f"not an expression node: {node!r}")


def codegen(node, params):
    """Emit a Python expression over ``y0..y{d-1}``, floats or numpy columns.

    Parameter values are inlined via ``repr`` (shortest round-trip), so the
    compiled function is a pure function of the state columns.
    """
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"y{node.index}"
    if isinstance(node, Param):
        return repr(float(params[node.name]))
    if type(node) in _INFIX:
        return f"({codegen(node.left, params)} {_INFIX[type(node)]} {codegen(node.right, params)})"
    if isinstance(node, Neg):
        return f"(-{codegen(node.operand, params)})"
    if isinstance(node, Pow):
        if node.exponent == 0:
            return "1.0"
        base = codegen(node.base, params)
        return "(" + " * ".join([base] * node.exponent) + ")"
    raise TypeError(f"not an expression node: {node!r}")
