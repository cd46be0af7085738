"""The expression-tree interpreter: the test oracle for the rate, drift and
gradient code that ``model._kernel_code`` generates from
``expr.codegen``.

It walks the tree in the generated code's operation order, with integer
powers as chained multiplications, so the two agree bit for bit.
"""

import operator

from ddjump.expr import Add, Const, Div, Mul, Neg, Param, Pow, Sub, Var

_APPLY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def evaluate(node, y, params):
    """Interpret ``node`` at point ``y`` (indexable) with bound ``params``."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(y[node.index])
    if isinstance(node, Param):
        return float(params[node.name])
    if type(node) in _APPLY:
        return _APPLY[type(node)](evaluate(node.left, y, params), evaluate(node.right, y, params))
    if isinstance(node, Neg):
        return -evaluate(node.operand, y, params)
    if isinstance(node, Pow):
        if node.exponent == 0:
            return 1.0
        base = evaluate(node.base, y, params)
        acc = base
        for _ in range(node.exponent - 1):
            acc = acc * base
        return acc
    raise TypeError(f"not an expression node: {node!r}")
