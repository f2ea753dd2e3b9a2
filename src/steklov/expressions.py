"""Arithmetic expression parser for boundary data given as text in x and y.

Supports + - * / ^ (right-associative power), unary minus, one-argument
functions (sin, cos, tan, sinh, cosh, tanh, exp, ln, sqrt, abs), the
constants pi and e, and numeric literals. Parsing is Pratt-style with
standard precedence; trees pretty-print back to source that reparses to an
identical tree.

evaluate takes floats or numpy arrays. Floats are evaluated with `math`.
Arrays are evaluated with numpy, with floating-point errors raised; when one
is raised the points are evaluated again one by one with `math`, so a
domain error, an overflow or a division by zero raises the same exception
as at a float, never a NaN or a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ExpressionError(ValueError):
    """Lex/parse/name/arity failure, carrying the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_NP_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 'x' or 'y'


@dataclass(frozen=True)
class Const:
    name: str  # 'pi' or 'e'


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/', '^'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Num | Var | Const | Neg | BinOp | Call


def evaluate(node: Node, x, y):
    """The tree's value at (x, y): a float, or an array of the broadcast
    shape where x or y is an array.

    On arrays a floating-point error (ln or sqrt of a negative, overflow,
    division by zero) or a complex power sends every point through the float
    path, which raises what `math` and float arithmetic raise there; a
    TypeError or ValueError from that path is marked for raised_pointwise.
    """
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        return _evaluate(node, x, y, _FUNCTIONS)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            out = _evaluate(node, x, y, _NP_FUNCTIONS)
        if not np.iscomplexobj(out):
            return out if np.shape(out) == x.shape else np.full(x.shape, out)
    except FloatingPointError:
        pass
    try:
        values = [_evaluate(node, a, b, _FUNCTIONS) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
        return np.array(values, dtype=float).reshape(x.shape)
    except (TypeError, ValueError) as exc:
        exc.steklov_pointwise = True  # read by raised_pointwise
        raise


def raised_pointwise(exc: BaseException) -> bool:
    """Whether exc came out of evaluate's point-by-point float path on
    arrays: evaluating the same points as floats raises it again."""
    return getattr(exc, "steklov_pointwise", False)


def _evaluate(node: Node, x, y, functions):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Const):
        return _CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.operand, x, y, functions)
    if isinstance(node, BinOp):
        a = _evaluate(node.left, x, y, functions)
        b = _evaluate(node.right, x, y, functions)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return a**b
    return functions[node.func](_evaluate(node.arg, x, y, functions))


# --- lexer -------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'lparen', 'rparen', 'comma', 'end'
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
        elif ch == ",":
            tokens.append(_Token("comma", ch, i))
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


# --- Pratt parser ------------------------------------------------------

_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PREC = 25  # below ^, above * and /, so -x^2 parses as -(x^2)


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ExpressionError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self) -> Node:
        node = self.expression(0)
        tail = self.peek()
        if tail.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tail.text!r}", tail.pos)
        return node

    def expression(self, min_prec: int) -> Node:
        node = self.prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _BIN_PREC:
                break
            prec = _BIN_PREC[tok.text]
            if prec <= min_prec:
                break
            self.advance()
            # right-associative power re-enters at prec-1
            right = self.expression(prec - 1 if tok.text == "^" else prec)
            node = BinOp(tok.text, node, right)
        return node

    def prefix(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "-":
            return Neg(self.expression(_UNARY_PREC))
        if tok.kind == "lparen":
            node = self.expression(0)
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.expression(0)
                if self.peek().kind == "comma":
                    raise ExpressionError(
                        f"{tok.text} takes exactly one argument", self.peek().pos
                    )
                self.expect("rparen", "')'")
                return Call(tok.text, arg)
            if tok.text in ("x", "y"):
                return Var(tok.text)
            if tok.text in _CONSTANTS:
                return Const(tok.text)
            raise ExpressionError(f"unknown identifier {tok.text!r}", tok.pos)
        raise ExpressionError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse(src: str) -> Node:
    """Parse source text into an expression tree."""
    return _Parser(src).parse()


# --- pretty printer ----------------------------------------------------


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg):
        return _UNARY_PREC
    return 100


def to_source(node: Node) -> str:
    """Minimal-parenthesis source form; reparses to an identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _prec(node.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    prec = _BIN_PREC[node.op]
    left = to_source(node.left)
    right = to_source(node.right)
    if node.op == "^":
        if _prec(node.left) <= prec:
            left = f"({left})"
        if _prec(node.right) < prec:
            right = f"({right})"
    else:
        if _prec(node.left) < prec:
            left = f"({left})"
        # the ops are left-associative: an equal-precedence right child only
        # keeps its shape through a reparse when parenthesized
        if _prec(node.right) <= prec or isinstance(node.right, Neg):
            right = f"({right})"
    return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
