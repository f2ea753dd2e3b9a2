"""Expression parser: values, precedence, errors, and round-trip properties."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklov import expressions as ex


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


@pytest.mark.parametrize(
    "src, where",
    [
        ("x + (", 5),
        ("1 + * 2", 4),
        ("foo", 0),
        ("sin(x, y)", 5),
        ("bar(x)", 0),
        ("3 @ 4", 2),
        ("x y", 2),
        ("1.2.3", 0),
    ],
)
def test_errors_carry_positions(src, where):
    with pytest.raises(ex.ExpressionError) as err:
        ex.parse(src)
    assert err.value.position == where


_rng = random.Random(20240809)


def random_tree(depth):
    """Independent AST generator, built without going through the parser."""
    if depth == 0 or _rng.random() < 0.25:
        pick = _rng.random()
        if pick < 0.4:
            return ex.Num(round(_rng.uniform(0.0, 9.0), 3))
        if pick < 0.7:
            return ex.Var(_rng.choice("xy"))
        return ex.Const(_rng.choice(("pi", "e")))
    pick = _rng.random()
    if pick < 0.15:
        return ex.Neg(random_tree(depth - 1))
    if pick < 0.35:
        return ex.Call(_rng.choice(("sin", "cos", "tanh", "exp", "abs")), random_tree(depth - 1))
    op = _rng.choice("+-*/^")
    if op == "^":
        # keep powers tame and well-defined
        return ex.BinOp("^", ex.Call("abs", random_tree(depth - 1)), ex.Num(float(_rng.randint(0, 3))))
    return ex.BinOp(op, random_tree(depth - 1), random_tree(depth - 1))


def test_random_trees_round_trip_and_match_direct_evaluation():
    points = [(0.3, -0.7), (1.0, 1.0), (-0.25, 0.8)]
    for _ in range(100):
        tree = random_tree(4)
        printed = ex.to_source(tree)
        reparsed = ex.parse(printed)
        assert reparsed == tree, printed
        for x, y in points:
            try:
                want = ex.evaluate(tree, x, y)
            except (ZeroDivisionError, OverflowError, ValueError):
                continue
            got = ex.evaluate(reparsed, x, y)
            assert got == want or got == pytest.approx(want, rel=1e-15)


@st.composite
def tree_strategy(draw, depth=3):
    if depth == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return ex.Num(draw(st.floats(0.0, 100.0, allow_nan=False)))
        if kind == 1:
            return ex.Var(draw(st.sampled_from(("x", "y"))))
        return ex.Const(draw(st.sampled_from(("pi", "e"))))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return ex.Neg(draw(tree_strategy(depth=depth - 1)))
    if kind == 1:
        fn = draw(st.sampled_from(sorted(("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "abs"))))
        return ex.Call(fn, draw(tree_strategy(depth=depth - 1)))
    if kind == 2:
        return draw(tree_strategy(depth=0))
    op = draw(st.sampled_from("+-*/^"))
    left = draw(tree_strategy(depth=depth - 1))
    right = draw(tree_strategy(depth=depth - 1))
    return ex.BinOp(op, left, right)


@settings(max_examples=60, deadline=None)
@given(tree_strategy())
def test_pretty_print_reparses_identically(tree):
    assert ex.parse(ex.to_source(tree)) == tree


def _scalar_values(tree, xs, ys):
    """Float evaluation point by point; the exception type of the first failing point."""
    out = []
    for x, y in zip(xs, ys):
        try:
            out.append(ex.evaluate(tree, x, y))
        except (ZeroDivisionError, OverflowError, ValueError, TypeError) as err:
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
        assert np.all((got == want) | (np.abs(got - want) <= 1e-13 * np.abs(want))), ex.to_source(tree)
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
    xs = np.linspace(-1.0, 1.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for src in ("exp(-1000 * (x + 1.5))", "x * 1e308 * 10"):
            got = ex.evaluate(ex.parse(src), xs, 0.0)
            assert got.tolist() == [ex.evaluate(ex.parse(src), x, 0.0) for x in xs.tolist()]
    assert got[0] == -math.inf and got[-1] == math.inf


def test_array_evaluation_broadcasts_and_fills_constants():
    got = ex.evaluate(ex.parse("2 * pi"), np.zeros((2, 3)), 1.0)
    assert got.shape == (2, 3) and np.all(got == 2 * math.pi)
    grid = ex.evaluate(ex.parse("x - y"), np.arange(3.0), np.arange(2.0)[:, None])
    assert grid.tolist() == [[0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]]
