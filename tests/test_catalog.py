"""Builtin data and exact solutions on floats and arrays, and the problem each solves."""

import math

import numpy as np
import pytest

from steklov import Rectangle, Side, SIDES, BoundaryFunction, boundary_data_from_spec, builtin_boundary
from steklov.catalog import BUILTIN_NAMES, EXACT_SOLUTIONS, exact_solution_for

# the formulas as floats, written with math
SCALAR = {
    "f1": lambda x, y: x**4 - 6.0 * x * x * y * y + y**4,
    "f2": lambda x, y: (2.0 - x) / ((2.0 - x) * (2.0 - x) + y * y),
    "f3": lambda x, y: 0.5 * math.log((x - 3.0) ** 2 + (y - 3.0) ** 2),
    "bd1": lambda x, y: x + y,
    "bd2": lambda x, y: x * x - y * y,
    "bd3": lambda x, y: math.exp(x) * math.sin(y),
}


def _close(got, want):
    """Within an ulp at the scale of the formulas' terms, which are O(1) here."""
    return np.abs(np.asarray(got) - np.asarray(want)) <= 2.0 * np.spacing(np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_exact_values_and_gradients_take_floats_and_broadcast(name):
    exact = exact_solution_for(name)
    xs = np.linspace(-1.0, 1.0, 7)
    ys = np.linspace(-0.5, 0.5, 5)[:, None]
    values = exact.value(xs, ys)
    assert values.shape == (5, 7)
    want = np.array([[SCALAR[name](x, y) for x in xs.tolist()] for y in ys.ravel().tolist()])
    assert np.all(_close(values, want))
    assert exact.value(0.3, -0.2) == pytest.approx(SCALAR[name](0.3, -0.2), rel=1e-15, abs=1e-16)

    gx, gy = exact.gradient(xs, ys)
    assert np.shape(gx) == np.shape(gy) == (5, 7)
    step = 1e-6
    fd_x = (exact.value(xs + step, ys) - exact.value(xs - step, ys)) / (2 * step)
    fd_y = (exact.value(xs, ys + step) - exact.value(xs, ys - step)) / (2 * step)
    assert np.allclose(gx, fd_x, atol=1e-8) and np.allclose(gy, fd_y, atol=1e-8)
    one = exact.gradient(0.3, -0.2)
    assert all(np.ndim(c) == 0 for c in one)


def test_exact_solutions_record_their_problem():
    kinds = {name: (e.problem.name, e.problem.b) for name, e in EXACT_SOLUTIONS.items()}
    assert kinds == {
        "f1": ("dirichlet", 0.0), "f2": ("dirichlet", 0.0), "f3": ("dirichlet", 0.0),
        "bd1": ("neumann", 0.0), "bd2": ("neumann", 0.0), "bd3": ("robin", 1.0),
    }


def _counting(g: BoundaryFunction):
    calls = []

    def wrap(fn):
        def counted(x, y):
            calls.append(isinstance(x, np.ndarray) or isinstance(y, np.ndarray))
            return fn(x, y)
        return counted

    return BoundaryFunction(g.rect, {s: wrap(fn) for s, fn in g.side_maps.items()}, g.name), calls


@pytest.mark.parametrize("make", [
    *[lambda rect, n=n: builtin_boundary(n, rect, 1.0 if n == "bd3" else None) for n in BUILTIN_NAMES],
    lambda rect: BoundaryFunction.from_expression("exp(x)*cos(y) + ln(3 - x)", rect),
    lambda rect: boundary_data_from_spec({"sides": {"G1": "sin(y)", "G2": "x^2", "G3": 0.5, "G4": [1, 2]}}, rect),
], ids=[*BUILTIN_NAMES, "expr", "sides"])
def test_builtin_and_expression_data_take_the_array_path(make):
    rect = Rectangle(0.5)
    g, calls = _counting(make(rect))
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        t = np.linspace(lo, hi, 9)
        values = g.value(side, t)
        assert calls == [True]  # one call on the arrays, no point-by-point retry
        assert values.shape == t.shape
        assert np.all(_close(values, [g.value(side, s) for s in t.tolist()]))
        calls.clear()


def test_foreign_float_maps_still_go_point_by_point():
    rect = Rectangle(1.0)
    g = BoundaryFunction.from_xy(lambda x, y: math.cos(x) if x > 0 else 1.0, rect)
    t = np.linspace(-1.0, 1.0, 5)
    assert g.value(Side.G2, t).tolist() == [g.value(Side.G2, s) for s in t.tolist()]
