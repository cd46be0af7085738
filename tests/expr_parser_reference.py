"""The hand-written rate-expression parser that ``ddjump.expr.parse_expr``
replaced: a regex tokenizer and a recursive-descent parser over the grammar
in the ``ddjump.expr`` docstring.  Kept unchanged as the oracle of the
parser equivalence tests in ``tests/test_expr.py``.
"""

from ddjump.errors import DimensionMismatchError, ExprSyntaxError, UnknownParameterError
from ddjump.expr import (
    _TOKEN_RE,
    _VAR_RE,
    MAX_EXPONENT,
    Add,
    Const,
    Div,
    Mul,
    Neg,
    Param,
    Pow,
    Sub,
    Var,
)


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


def parse(text, dim, param_names):
    """The oracle's tree for ``text``, or its ``ConfigError``."""
    return _Parser(text, dim, param_names).parse()
