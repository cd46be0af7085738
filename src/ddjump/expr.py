"""Closed mini-language for rate functions.

Expressions are built from variables ``x1 .. xd``, named scalar parameters,
float literals, and the operators ``+ - * /`` plus nonnegative integer powers
(``^`` or ``**``).  Grammar (used by :func:`parse_expr`)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom (('^' | '**') INT)?
    atom    := NUMBER | NAME | '(' expr ')'

``x<k>`` names (k = 1..d, no leading zero) are variables; every other name
must be a bound parameter.

Python's own parser, whose precedence is this grammar's, reads a stand-in
text: ``_TOKEN_RE`` lexes ``text``, each number or name becomes ``_<i>``
between spaces, ``^`` becomes ``**`` and whitespace ASCII spaces, so Python
sees no keyword and no literal.  Its tree is converted node by node into the
closed node set below (``+ - * /``, unary ``-``, a power with a bare integer
literal, a number or name); any other node is a syntax error.  No user code
is ever executed: nothing is evaluated, and :func:`codegen` emits only
arithmetic on those nodes.

Rates, drift and rate gradients are compiled from :func:`codegen` output
in ``model._kernel_code``, the only caller of :func:`differentiate`.  Integer exponents are chained multiplications.  The
tests check the generated code bit for bit against a tree interpreter
(``tests/expr_reference.py``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, is_dataclass

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


_BINARY = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}


def _bind(kind, tok, col, dim, param_names):
    """The leaf node of a number or name token at column ``col``."""
    if kind == "num":
        return Const(float(tok))
    if m := _VAR_RE.match(tok):
        if int(m.group(1)) > dim:
            raise DimensionMismatchError(f"variable {tok} out of range for dimension {dim}", col=col)
        return Var(int(m.group(1)) - 1)
    if tok in param_names:
        return Param(tok)
    raise UnknownParameterError(f"unknown parameter {tok!r}", col=col)


def _tree(node, ctx):
    """The expression node of ``node``, a node of Python's tree of a stand-in
    text; ``ctx`` is (stand-in text, columns, atoms, dim, param_names)."""
    stand_in, cols, atoms, dim, param_names = ctx
    if isinstance(node, ast.Name):
        return _bind(*atoms[int(node.id[1:])], dim, param_names)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Neg(_tree(node.operand, ctx))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_tree(node.left, ctx), _tree(node.right, ctx))
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        raise ExprSyntaxError("invalid syntax", col=cols[node.col_offset])
    base, e = _tree(node.left, ctx), node.right
    kind, tok, col = atoms[int(e.id[1:])] if isinstance(e, ast.Name) else (None, "", cols[e.col_offset])
    # a bare number: no '(' between it and its '**'
    if kind != "num" or stand_in[: e.col_offset].rstrip()[-1] != "*":
        raise ExprSyntaxError("exponent must be a nonnegative integer literal", col=col)
    if not (float(tok).is_integer() and float(tok) <= MAX_EXPONENT):
        raise ExprSyntaxError(f"exponent {tok} is not an integer in 0..{MAX_EXPONENT}", col=col)
    node = Pow(base, int(float(tok)))
    if (n := _copies(node)) > MAX_EXPONENT:
        raise ExprSyntaxError(f"nested exponents multiply to {n}, above {MAX_EXPONENT}", col=col)
    return node


def _copies(node):
    """The largest product of exponents along powers nested in one another's
    bases: the copies of one leaf that ``codegen`` writes out."""
    if isinstance(node, Pow):
        return node.exponent * max(1, _copies(node.base))
    return max((_copies(v) for v in vars(node).values() if is_dataclass(v)), default=1)


def parse_expr(text, dim, param_names):
    """Parse ``text`` into an expression tree, binding names eagerly."""
    # the stand-in text, the column of ``text`` behind each of its characters
    # and behind its end, and each number's or name's (kind, token, column)
    parts, cols, atoms, pos = [], [], [], 0
    while m := _TOKEN_RE.match(text, pos):
        kind, tok, start = m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)
        if kind != "op":
            atoms.append((kind, tok, start + 1))
        piece = f" _{len(atoms) - 1} " if kind != "op" else "**" if tok == "^" else tok
        parts += [" " * (start - pos), piece]
        cols += [pos + 1] * (start - pos) + [start + 1] * len(piece)
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ExprSyntaxError(f"unexpected character {rest[0]!r}", col=len(text) - len(rest) + 1)
    stand_in = "".join(parts).lstrip()
    cols = cols[len(cols) - len(stand_in) :] + [len(text) + 1]
    try:
        return _tree(ast.parse(stand_in, mode="eval").body, (stand_in, cols, atoms, dim, param_names))
    except SyntaxError as e:  # the language has no commas, so Python's comma hint is dropped
        msg = e.msg.removesuffix(". Perhaps you forgot a comma?")
        raise ExprSyntaxError(msg, col=cols[min(e.offset or 1, len(cols)) - 1]) from None
    except (RecursionError, MemoryError):  # Python's parser stack or _tree() ran out
        raise ExprSyntaxError("expression nested too deeply") from None


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
