"""Boundary data given as text in x and y.

The grammar is Python's expression syntax restricted to + - * / and ^ for
power (right-associative, binding tighter than unary minus on its left:
-x^2 is -(x^2), 2^-1 is 0.5), unary minus, parentheses, one-argument calls of
sin, cos, tan, sinh, cosh, tanh, exp, ln, sqrt and abs, the names x, y, pi
and e, and decimal literals, which must be finite. `**` is refused, and so is
every other character, name, operator or form, with its position in the
source. `parse` checks the text with one pattern, hands it to `ast.parse` with
`^` spelled `**`, and walks the tree against that whitelist; each literal's
value is `float` of its source text.

evaluate takes floats or numpy arrays. Floats are evaluated with `math`, and
a value that is not finite raises ArithmeticError. Arrays are evaluated with
numpy, with floating-point errors raised; when one is raised, or a value is
not finite, the points are evaluated again one by one with `math`, so a
domain error, an overflow or a division by zero raises the same exception as
at a float, never a NaN or a warning.
"""

from __future__ import annotations

import ast
import math
import operator
import re

import numpy as np


class ExpressionError(ValueError):
    """Lex/parse/name/arity failure, carrying the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_NAMES = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "sqrt")
_FUNCTIONS = {**{name: getattr(math, name) for name in _NAMES}, "ln": math.log, "abs": abs}
_NP_FUNCTIONS = {**{name: getattr(np, name) for name in _NAMES}, "ln": np.log, "abs": np.abs}
_CONSTANTS = {"pi": math.pi, "e": math.e}

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}

_REFUSED = re.compile(r"[^0-9A-Za-z.\s+\-*/^(),]|(?<=\*)\*")  # the second star of **
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def parse(src: str) -> ast.expr:
    """Parse source text into an expression tree (an `ast` node)."""
    bad = _REFUSED.search(src)
    if bad:
        raise ExpressionError(f"unexpected character {bad.group()!r}", bad.start())
    text = re.sub(r"\s", " ", src.replace("^", "**"))  # one line, so columns are offsets
    body = text.lstrip()  # ast.parse refuses an indent
    # the position in src of each column of body, and of its end: each ^ became two characters
    back = [i for i, ch in enumerate(src) for _ in range(1 + (ch == "^"))][len(text) - len(body):] + [len(src)]
    try:
        tree = ast.parse(body, mode="eval").body
    except SyntaxError as exc:  # offset counts from 1; 0 is the end of the input
        column = exc.offset - 1 if exc.offset else len(body)
        raise ExpressionError(exc.msg, back[min(column, len(body))]) from None
    _check(tree, body, back)
    return tree


def _check(node: ast.AST, body: str, back: list[int]) -> None:
    """Refuse any node outside the whitelist; set each literal's value to
    float of its source text."""
    where, segment = back[node.col_offset], body[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        _check(node.left, body, back)
        _check(node.right, body, back)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        _check(node.operand, body, back)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS:
        if len(node.args) != 1:
            end = node.args[0].end_col_offset if node.args else node.func.end_col_offset + 1
            raise ExpressionError(f"{node.func.id} takes exactly one argument", back[end])
        _check(node.args[0], body, back)
    elif isinstance(node, ast.Name) and node.id in ("x", "y", *_CONSTANTS):
        pass
    elif isinstance(node, ast.Constant) and _DECIMAL.fullmatch(segment):
        node.value = float(segment)
        if not math.isfinite(node.value):
            raise ExpressionError("number out of range", where)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        raise ExpressionError(f"unknown function {node.func.id!r}", where)
    elif isinstance(node, ast.Name):
        raise ExpressionError(f"unknown identifier {node.id!r}", where)
    else:
        raise ExpressionError(f"unsupported {segment!r}", where)


def evaluate(node: ast.expr, x, y):
    """The tree's value at (x, y): a float, or an array of the broadcast
    shape where x or y is an array.

    A value that is not finite is an ArithmeticError. On arrays such a value,
    a floating-point error (ln or sqrt of a negative, overflow, division by
    zero) or a complex power sends every point through the float path, which
    raises what `math` and float arithmetic raise there; a TypeError or
    ValueError from that path is marked for raised_pointwise.
    """
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        value = _evaluate(node, x, y, _FUNCTIONS)
        if isinstance(value, float) and not math.isfinite(value):
            raise ArithmeticError(f"expression value {value!r} at ({float(x)!r}, {float(y)!r}) is not finite")
        return value
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            out = _evaluate(node, x, y, _NP_FUNCTIONS)
        if not np.iscomplexobj(out) and np.isfinite(out).all():
            return out if np.shape(out) == x.shape else np.full(x.shape, out)
    except FloatingPointError:
        pass
    try:
        values = [evaluate(node, a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
        return np.array(values, dtype=float).reshape(x.shape)
    except (TypeError, ValueError) as exc:
        exc.steklov_pointwise = True  # read by raised_pointwise
        raise


def raised_pointwise(exc: BaseException) -> bool:
    """Whether exc came out of evaluate's point-by-point float path on
    arrays: evaluating the same points as floats raises it again."""
    return getattr(exc, "steklov_pointwise", False)


def _evaluate(node: ast.expr, x, y, functions):
    if isinstance(node, ast.BinOp):
        return _OPERATORS[type(node.op)](_evaluate(node.left, x, y, functions),
                                         _evaluate(node.right, x, y, functions))
    if isinstance(node, ast.Name):
        return x if node.id == "x" else y if node.id == "y" else _CONSTANTS[node.id]
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, x, y, functions)
    return functions[node.func.id](_evaluate(node.args[0], x, y, functions))
