"""The modes x points kernel: array evaluation agrees with the scalar paths."""

import math

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    FamilyTag,
    Rectangle,
    SIDES,
    boundary_partial_sum,
    boundary_sup,
    build_spectrum_by_count,
    builtin_boundary,
    solve_dirichlet,
    solve_robin,
    steklov_coefficients,
)

TOL = 1e-13
H_VALUES = (1.0, 0.5)  # the square carries the xy mode; h < 1 does not


def side_params(rect, side, n=37):
    lo, hi = rect.side_interval(side)
    return np.linspace(lo, hi, n)


def close(array, scalars):
    np.testing.assert_allclose(array, np.array(scalars), rtol=TOL, atol=TOL)


@pytest.fixture(scope="module", params=H_VALUES)
def spec(request):
    return build_spectrum_by_count(Rectangle(request.param), 41)


def test_square_spectrum_has_xy_mode():
    spec = build_spectrum_by_count(Rectangle(1.0), 41)
    assert any(md.family is FamilyTag.XY for md in spec.nonconstant)


def test_values_match_scalar_modes(spec):
    rng = np.random.default_rng(3)
    h = spec.rectangle.h
    x = np.concatenate([rng.uniform(-1, 1, 50), [1.0, -1.0, 0.0, 1.0]])
    y = np.concatenate([rng.uniform(-h, h, 50), [h, -h, 0.0, 0.0]])
    S = spec.values(x, y)
    assert S.shape == (len(spec.nonconstant), len(x))
    for row, md in zip(S, spec.nonconstant):
        close(row, [md._value_unchecked(a, b) for a, b in zip(x.tolist(), y.tolist())])
        close(row, md.value_array(x, y))


def test_values_of_constant_only_spectrum():
    spec = build_spectrum_by_count(Rectangle(0.7), 0)
    assert spec.values(np.zeros(3), np.zeros(3)).shape == (0, 3)
    assert spec.expand((), 0.2, 0.1) == 0.0


@pytest.mark.parametrize("name", ["f1", "f3", "bd1", "bd3"])
def test_boundary_value_on_arrays_matches_scalar(spec, name):
    rect = spec.rectangle
    g = builtin_boundary(name, rect, 1.0 if name == "bd3" else None)
    for side in SIDES:
        ts = side_params(rect, side)
        vals = g.value(side, ts)
        assert vals.shape == ts.shape
        close(vals, [g.value(side, t) for t in ts.tolist()])


def test_boundary_value_of_polynomial_and_expression_data():
    rect = Rectangle(0.8)
    poly = BoundaryFunction.from_side_polynomials(rect, {s: [0.5, -1.0, 2.0] for s in SIDES})
    expr = BoundaryFunction.from_expression("exp(x)*cos(y) + x^2", rect)
    for g in (poly, expr, BoundaryFunction.constant(2.5, rect)):
        for side in SIDES:
            ts = side_params(rect, side)
            close(g.value(side, ts), [g.value(side, t) for t in ts.tolist()])


def test_partial_sum_on_arrays_matches_scalar(spec):
    rect = spec.rectangle
    co = steklov_coefficients(builtin_boundary("f2", rect), spec)
    for side in SIDES:
        ts = side_params(rect, side)
        close(boundary_partial_sum(co, side, ts), [boundary_partial_sum(co, side, t) for t in ts.tolist()])
        # and the scalar path against the per-mode trace sum it replaces
        t = float(ts[5])
        ref = co.gbar + math.fsum(v * md.trace(side, t) for v, md in zip(co.values, spec.nonconstant))
        assert isinstance(boundary_partial_sum(co, side, t), float)
        assert boundary_partial_sum(co, side, t) == pytest.approx(ref, rel=TOL, abs=TOL)


def test_approximation_boundary_value_on_arrays_matches_scalar(spec):
    rect = spec.rectangle
    g = builtin_boundary("f1", rect)
    for u in (solve_dirichlet(g, spec, use_corner_reduction=True), solve_robin(g, 2.0, spec)):
        for side in SIDES:
            ts = side_params(rect, side)
            close(u.boundary_value(side, ts), [u.boundary_value(side, t) for t in ts.tolist()])
        x, y = 0.3, -0.2 * rect.h
        ref = u.constant_term + u._lift_value(x, y) + math.fsum(
            w * md._value_unchecked(x, y) for w, md in zip(u.weights, spec.nonconstant)
        )
        assert isinstance(u.eval(x, y), float)
        assert u.eval(x, y) == pytest.approx(ref, rel=TOL, abs=TOL)


@pytest.mark.parametrize("h", H_VALUES)
@pytest.mark.parametrize("corners", [True, False])
def test_boundary_sup_nodes_match_scalar_loop(h, corners):
    rect = Rectangle(h)
    n = 250
    seen = {}

    def fn(side, ts):
        seen[side] = ts.tolist()
        return np.zeros_like(ts)

    boundary_sup(fn, rect, n, include_corners=corners)
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        step = (hi - lo) / n
        if corners:
            expect = [lo + i * step for i in range(n + 1)]
        else:
            expect = [lo + (i + 0.5) * step for i in range(n)]
        assert seen[side] == expect


def test_boundary_sup_value_and_nan():
    rect = Rectangle(0.5)
    g = builtin_boundary("f2", rect)
    scalar = 0.0
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        for i in range(101):
            scalar = max(scalar, abs(g.value(side, lo + i * (hi - lo) / 100)))
    assert boundary_sup(g.value, rect, 100) == pytest.approx(scalar, rel=TOL)
    nan_on_g3 = lambda side, ts: np.full(ts.shape, math.nan if side.name == "G3" else 1.0)
    assert math.isnan(boundary_sup(nan_on_g3, rect, 16))
