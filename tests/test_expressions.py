"""Expression parser: values, precedence, errors, and round-trip properties."""

import ast
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklov import expressions as ex


# --- printer: the round-trip oracle of the parser's precedence and associativity

_PREC = {ast.Add: 10, ast.Sub: 10, ast.Mult: 20, ast.Div: 20, ast.Pow: 30}
_UNARY_PREC = 25  # Python's: below ^ on its left, above * and /, so -x^2 is -(x^2)
_SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _prec(node) -> int:
    if isinstance(node, ast.BinOp):
        return _PREC[type(node.op)]
    if isinstance(node, ast.UnaryOp):
        return _UNARY_PREC
    return 100


def to_source(node) -> str:
    """Minimal-parenthesis source form; reparses to an identical tree."""
    if isinstance(node, ast.Constant):
        return repr(node.value)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.UnaryOp):
        inner = to_source(node.operand)
        if _prec(node.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, ast.Call):
        return f"{node.func.id}({to_source(node.args[0])})"
    prec = _prec(node)
    left = to_source(node.left)
    right = to_source(node.right)
    if isinstance(node.op, ast.Pow):
        if _prec(node.left) <= prec:
            left = f"({left})"
        if _prec(node.right) < prec:
            right = f"({right})"
    else:
        if _prec(node.left) < prec:
            left = f"({left})"
        # the ops are left-associative: an equal-precedence right child only
        # keeps its shape through a reparse when parenthesized
        if _prec(node.right) <= prec or isinstance(node.right, ast.UnaryOp):
            right = f"({right})"
    op = _SYMBOL[type(node.op)]
    return f"{left} {op} {right}" if op in "+-" else f"{left}{op}{right}"


# --- the parser's node shapes, built without it; trees are equal when their dumps are


def num(value: float):
    return ast.Constant(value)


def name(text: str):
    return ast.Name(text, ast.Load())


def neg(operand):
    return ast.UnaryOp(ast.USub(), operand)


def call(func: str, arg):
    return ast.Call(name(func), [arg], [])


def binop(op: str, left, right):
    return ast.BinOp(left, next(k for k, v in _SYMBOL.items() if v == op)(), right)


def same_tree(a, b) -> bool:
    return ast.dump(a) == ast.dump(b)


def test_quartic_example():
    tree = ex.parse("x^4 - 6*x^2*y^2 + y^4")
    assert ex.evaluate(tree, 0.9, 0.9) == pytest.approx(-2.6244, abs=1e-12)


def test_log_distance_example():
    tree = ex.parse("ln(sqrt((x-3)^2 + (y-3)^2))")
    assert ex.evaluate(tree, 0.5, 0.5) == pytest.approx(1.262864, abs=5e-7)


def test_constant_one():
    tree = ex.parse("1")
    assert ex.evaluate(tree, -0.3, 0.7) == 1.0


def test_precedence_and_associativity():
    assert ex.evaluate(ex.parse("2+3*4"), 0, 0) == 14.0
    assert ex.evaluate(ex.parse("2*3^2"), 0, 0) == 18.0
    assert ex.evaluate(ex.parse("2^3^2"), 0, 0) == 512.0  # right-associative
    assert ex.evaluate(ex.parse("-x^2"), 2.0, 0) == -4.0  # minus binds below power
    assert ex.evaluate(ex.parse("(-x)^2"), 2.0, 0) == 4.0
    assert ex.evaluate(ex.parse("2^-1"), 0, 0) == 0.5
    assert ex.evaluate(ex.parse("10-4-3"), 0, 0) == 3.0  # left-associative
    assert ex.evaluate(ex.parse("24/4/2"), 0, 0) == 3.0


def test_constants_and_functions():
    assert ex.evaluate(ex.parse("cos(pi)"), 0, 0) == pytest.approx(-1.0, rel=1e-15)
    assert ex.evaluate(ex.parse("ln(e)"), 0, 0) == pytest.approx(1.0, rel=1e-15)
    assert ex.evaluate(ex.parse("abs(-x)"), 3.0, 0) == 3.0
    assert ex.evaluate(ex.parse("tanh(x) - sinh(x)/cosh(x)"), 0.7, 0) == pytest.approx(0.0, abs=1e-15)


# Every expression that the tests and README evaluate, and the precedence
# cases: (source, float.hex of its value at (0.37, -0.61), the same formula
# written out in numpy). The sources that raise are pinned by
# test_array_domain_errors_raise_as_floats_do and the complex-power test.
_PINS = [
    ("x^4 - 6*x^2*y^2 + y^4", "-0x1.3002d775c82e2p-3", lambda x, y: x**4.0 - 6.0 * x**2.0 * y**2.0 + y**4.0),
    ("ln(sqrt((x-3)^2 + (y-3)^2))", "0x1.7f207d720ad39p+0",
     lambda x, y: np.log(np.sqrt((x - 3.0) ** 2.0 + (y - 3.0) ** 2.0))),
    ("1", "0x1.0000000000000p+0", lambda x, y: 1.0),
    ("2+3*4", "0x1.c000000000000p+3", lambda x, y: 2.0 + 3.0 * 4.0),
    ("2*3^2", "0x1.2000000000000p+4", lambda x, y: 2.0 * 3.0**2.0),
    ("2^3^2", "0x1.0000000000000p+9", lambda x, y: 2.0 ** (3.0**2.0)),
    ("-x^2", "-0x1.185f06f694467p-3", lambda x, y: -(x**2.0)),
    ("(-x)^2", "0x1.185f06f694467p-3", lambda x, y: (-x) ** 2.0),
    ("2^-1", "0x1.0000000000000p-1", lambda x, y: 2.0 ** (-1.0)),
    ("10-4-3", "0x1.8000000000000p+1", lambda x, y: (10.0 - 4.0) - 3.0),
    ("24/4/2", "0x1.8000000000000p+1", lambda x, y: (24.0 / 4.0) / 2.0),
    ("-2^2", "-0x1.0000000000000p+2", lambda x, y: -(2.0**2.0)),
    ("3e2", "0x1.2c00000000000p+8", lambda x, y: 300.0),
    ("cos(pi)", "-0x1.0000000000000p+0", lambda x, y: np.cos(math.pi)),
    ("ln(e)", "0x1.0000000000000p+0", lambda x, y: np.log(math.e)),
    ("abs(-x)", "0x1.7ae147ae147aep-2", lambda x, y: np.abs(-x)),
    ("tanh(x) - sinh(x)/cosh(x)", "0x0.0p+0", lambda x, y: np.tanh(x) - np.sinh(x) / np.cosh(x)),
    ("exp(-1000 * (x + 1.5))", "0x0.0p+0", lambda x, y: np.exp(-1000.0 * (x + 1.5))),
    ("tanh(x * 1e308 * 10)", "0x1.0000000000000p+0", lambda x, y: np.tanh(x * 1e308 * 10.0)),
    ("2 * pi", "0x1.921fb54442d18p+2", lambda x, y: 2.0 * math.pi),
    ("x - y", "0x1.f5c28f5c28f5cp-1", lambda x, y: x - y),
    ("2*(exp(1)*sin(y))", "-0x1.8ea5a7e27f71cp+1", lambda x, y: 2.0 * (np.exp(1.0) * np.sin(y))),
    ("x^2", "0x1.185f06f694467p-3", lambda x, y: x**2.0),
    ("x*y", "-0x1.ce3bcd35a8587p-3", lambda x, y: x * y),
    ("x + 2*y", "-0x1.b333333333333p-1", lambda x, y: x + 2.0 * y),
    ("sin(y)", "-0x1.254ee23c25f74p-1", lambda x, y: np.sin(y)),
    ("exp(x)*cos(y) + ln(3 - x)", "0x1.13a9b5e360449p+1", lambda x, y: np.exp(x) * np.cos(y) + np.log(3.0 - x)),
    ("sqrt(abs(1 - x^2))", "0x1.dbaa0cd106e68p-1", lambda x, y: np.sqrt(np.abs(1.0 - x**2.0))),
    ("exp(x)*sin(y) + x*y^2 + x^3", "-0x1.48351746c3e5fp-1",
     lambda x, y: np.exp(x) * np.sin(y) + x * y**2.0 + x**3.0),
    ("exp(x)*cos(y)", "0x1.2fc72aeb9b6e5p+0", lambda x, y: np.exp(x) * np.cos(y)),
    ("abs(x - 0.3)", "0x1.1eb851eb851ecp-4", lambda x, y: np.abs(x - 0.3)),
    ("exp(x)*cos(y) + x^2", "0x1.52d30bca6df72p+0", lambda x, y: np.exp(x) * np.cos(y) + x**2.0),
    ("0*x", "0x0.0p+0", lambda x, y: 0.0 * x),
    ("x+y", "-0x1.eb851eb851eb8p-3", lambda x, y: x + y),
    ("x^2-y^2", "-0x1.e1b089a027525p-3", lambda x, y: x**2.0 - y**2.0),
]


@pytest.mark.parametrize("src, value, numpy_form", _PINS, ids=[p[0] for p in _PINS])
def test_values_are_pinned_bit_for_bit(src, value, numpy_form):
    """The float value against its recorded bits; the value on 101 points
    against the numpy form, bit for bit (its signs of zero included)."""
    tree = ex.parse(src)
    assert float.hex(ex.evaluate(tree, 0.37, -0.61)) == value
    xs, ys = np.linspace(-1.0, 1.0, 101), np.linspace(-0.8, 0.9, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ex.evaluate(tree, xs, ys)
    with np.errstate(all="ignore"):
        want = np.broadcast_to(np.asarray(numpy_form(xs, ys), dtype=float), xs.shape)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "src, where",
    [
        ("x + (", 4),  # where Python's parser names the unclosed "("
        ("1 + * 2", 4),
        ("foo", 0),
        ("sin(x, y)", 5),
        ("bar(x)", 0),
        ("3 @ 4", 2),
        ("x y", 2),
        ("1.2.3", 3),  # 1.2, then the literal .3
    ],
)
def test_errors_carry_positions(src, where):
    with pytest.raises(ex.ExpressionError) as err:
        ex.parse(src)
    assert err.value.position == where


@pytest.mark.parametrize("src, where, message", [
    ("x**2", 2, "unexpected character '*'"),  # the grammar's power is ^
    ("0123", 0, "leading zeros"),
    ("x ^ 2 ^ ", 8, "invalid syntax"),  # at the end of the input
    ("  foo", 2, "unknown identifier 'foo'"),
    ("x +\n  e(1)", 6, "unknown function 'e'"),
    ("sin()", 4, "sin takes exactly one argument"),
    ("x // y", 0, "unsupported 'x // y'"),
    ("+x", 0, "unsupported '+x'"),
    ("1 + x.real", 4, "unsupported 'x.real'"),
    ("sin(x)(y)", 0, "unsupported 'sin(x)(y)'"),
    ("x if y else 1", 0, "unsupported"),
    ("(x, y)", 0, "unsupported"),
    ("0x10", 0, "unsupported '0x10'"),
    ("2^3j", 2, "unsupported '3j'"),
    ("True", 0, "unsupported 'True'"),
])
def test_python_forms_outside_the_grammar_are_refused(src, where, message):
    with pytest.raises(ex.ExpressionError, match=re.escape(message)) as err:
        ex.parse(src)
    assert err.value.position == where


@pytest.mark.parametrize("src, where", [("1e400", 0), ("1e400*x", 0), ("x - 2^1e309", 6)])
def test_literals_that_overflow_are_refused(src, where):
    # accepted once: 1e400 reached the solver as inf, and 1e400*x gave NaN at x = 0
    with pytest.raises(ex.ExpressionError, match="number out of range") as err:
        ex.parse(src)
    assert err.value.position == where


def test_whitespace_and_newlines_are_blanks():
    assert ex.evaluate(ex.parse("\t x +\n 2 * y "), 1.0, 0.25) == 1.5


_rng = random.Random(20240809)


def random_tree(depth):
    """Independent AST generator, built without going through the parser."""
    if depth == 0 or _rng.random() < 0.25:
        pick = _rng.random()
        if pick < 0.4:
            return num(round(_rng.uniform(0.0, 9.0), 3))
        if pick < 0.7:
            return name(_rng.choice("xy"))
        return name(_rng.choice(("pi", "e")))
    pick = _rng.random()
    if pick < 0.15:
        return neg(random_tree(depth - 1))
    if pick < 0.35:
        return call(_rng.choice(("sin", "cos", "tanh", "exp", "abs")), random_tree(depth - 1))
    op = _rng.choice("+-*/^")
    if op == "^":
        # keep powers tame and well-defined
        return binop("^", call("abs", random_tree(depth - 1)), num(float(_rng.randint(0, 3))))
    return binop(op, random_tree(depth - 1), random_tree(depth - 1))


def test_random_trees_round_trip_and_match_direct_evaluation():
    points = [(0.3, -0.7), (1.0, 1.0), (-0.25, 0.8)]
    for _ in range(100):
        tree = random_tree(4)
        printed = to_source(tree)
        reparsed = ex.parse(printed)
        assert same_tree(reparsed, tree), printed
        for x, y in points:
            try:
                want = ex.evaluate(tree, x, y)
            except (ArithmeticError, ValueError):
                continue
            got = ex.evaluate(reparsed, x, y)
            assert got == want or got == pytest.approx(want, rel=1e-15)


@st.composite
def tree_strategy(draw, depth=3):
    if depth == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return num(draw(st.floats(0.0, 100.0, allow_nan=False)))
        if kind == 1:
            return name(draw(st.sampled_from(("x", "y"))))
        return name(draw(st.sampled_from(("pi", "e"))))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return neg(draw(tree_strategy(depth=depth - 1)))
    if kind == 1:
        fn = draw(st.sampled_from(sorted(("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "abs"))))
        return call(fn, draw(tree_strategy(depth=depth - 1)))
    if kind == 2:
        return draw(tree_strategy(depth=0))
    op = draw(st.sampled_from("+-*/^"))
    left = draw(tree_strategy(depth=depth - 1))
    right = draw(tree_strategy(depth=depth - 1))
    return binop(op, left, right)


@settings(max_examples=60, deadline=None)
@given(tree_strategy())
def test_pretty_print_reparses_identically(tree):
    assert same_tree(ex.parse(to_source(tree)), tree)


def _scalar_values(tree, xs, ys):
    """Float evaluation point by point; the exception type of the first failing point."""
    out = []
    for x, y in zip(xs, ys):
        try:
            out.append(ex.evaluate(tree, x, y))
        except (ArithmeticError, ValueError, TypeError) as err:
            return type(err)
    return np.array(out, dtype=float) if all(isinstance(v, float) for v in out) else TypeError


def test_random_trees_on_arrays_match_float_evaluation():
    rng = np.random.default_rng(11)
    xs = np.concatenate([[0.3, 1.0, -0.25, 0.0], rng.uniform(-1.0, 1.0, 60)])
    ys = np.concatenate([[-0.7, 1.0, 0.8, 0.0], rng.uniform(-1.0, 1.0, 60)])
    raised = 0
    for _ in range(300):
        tree = random_tree(4)
        want = _scalar_values(tree, xs.tolist(), ys.tolist())
        if isinstance(want, type):
            raised += 1
            with pytest.raises(want):
                ex.evaluate(tree, xs, ys)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ex.evaluate(tree, xs, ys)
        assert got.shape == xs.shape
        assert np.all((got == want) | (np.abs(got - want) <= 1e-13 * np.abs(want))), to_source(tree)
    assert raised > 0


@pytest.mark.parametrize("src, error", [
    ("ln(x)", ValueError),
    ("sqrt(x - 2)", ValueError),
    ("exp(1000 * x)", OverflowError),
    ("1 / x", ZeroDivisionError),
])
def test_array_domain_errors_raise_as_floats_do(src, error):
    tree = ex.parse(src)
    xs = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(error):
        ex.evaluate(tree, 0.0 if error is not OverflowError else 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            ex.evaluate(tree, xs, 0.0)


def test_complex_power_on_arrays_is_a_type_error():
    # a float gives a complex number; an array of them cannot hold one
    tree = ex.parse("(x - 2)^0.5")
    assert isinstance(ex.evaluate(tree, 1.0, 0.0), complex)
    with pytest.raises(TypeError):
        ex.evaluate(tree, np.linspace(-1.0, 1.0, 5), 0.0)


def test_array_underflow_and_float_overflow_do_not_raise():
    # float * overflows to inf without raising; a finite value of it stands
    xs = np.linspace(-1.0, 1.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for src in ("exp(-1000 * (x + 1.5))", "tanh(x * 1e308 * 10)"):
            got = ex.evaluate(ex.parse(src), xs, 0.0)
            assert got.tolist() == [ex.evaluate(ex.parse(src), x, 0.0) for x in xs.tolist()]
    assert got.tolist() == [-1.0, -1.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("src, value, x", [
    ("x * 1e308 * 10", "inf", 1.0),
    ("-x * 1e308 * 10", "-inf", 1.0),
    ("x * 1e308 * 10 - x * 1e308 * 10", "nan", 1.0),
    ("x", "nan", float("nan")),
])
def test_values_that_are_not_finite_are_refused(src, value, x):
    # as floats and on arrays, where the first point that is not finite is named
    tree = ex.parse(src)
    message = f"expression value {value} at ({x!r}, 0.25) is not finite"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        ex.evaluate(tree, x, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            ex.evaluate(tree, np.array([0.0, x, 0.75]), 0.25)


def test_array_evaluation_broadcasts_and_fills_constants():
    got = ex.evaluate(ex.parse("2 * pi"), np.zeros((2, 3)), 1.0)
    assert got.shape == (2, 3) and np.all(got == 2 * math.pi)
    grid = ex.evaluate(ex.parse("x - y"), np.arange(3.0), np.arange(2.0)[:, None])
    assert grid.tolist() == [[0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]]
