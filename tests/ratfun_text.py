"""Read RatFun literals in the text that RatFun.format() writes.

The grammar is rationals, x1..xr, h, + - * / ^ and parentheses.  With ^
written as **, it is a subset of Python's expression grammar with the same
precedence and associativity, so the text is parsed by `ast` and the tree is
evaluated in RatFun arithmetic.
"""

import ast
import re

from dynwg.ratfun import Polynomial, RatFun

_OPS = {ast.Add: RatFun.__add__, ast.Sub: RatFun.__sub__,
        ast.Mult: RatFun.__mul__, ast.Div: RatFun.__truediv__}


def var(i: int, nx: int) -> RatFun:
    """The variable x_{i+1} in nx x-variables; i == nx gives h."""
    if not 0 <= i <= nx:
        raise ValueError(f"variable index {i} out of range")
    return RatFun(Polynomial(nx, {tuple(int(j == i) for j in range(nx + 1)): 1}), ())


def parse_ratfun(text: str, nx: int) -> RatFun:
    """The RatFun in nx x-variables that the text denotes."""

    def value(node) -> RatFun:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            n = node.right
            if not (isinstance(n, ast.Constant) and type(n.value) is int and n.value >= 0):
                raise ValueError("exponent must be a non-negative integer")
            return value(node.left) ** n.value
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return RatFun.const(node.value, nx)
        if isinstance(node, ast.Name) and node.id == "h":
            return var(nx, nx)
        if (isinstance(node, ast.Name) and re.fullmatch(r"x[1-9]\d*", node.id)
                and int(node.id[1:]) <= nx):
            return var(int(node.id[1:]) - 1, nx)
        raise ValueError(f"not in the RatFun text grammar: {ast.dump(node)}")

    return value(ast.parse(text.replace("^", "**"), mode="eval").body)
