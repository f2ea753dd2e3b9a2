"""The panel-adaptive boundary quadrature behind integrate_boundary and
boundary_l2: closed-form integrals, error estimates, its K49 panels and
failure on NaN; and the package import: numpy only, without numpy.polynomial
or scipy, with an explicit list of public names."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steklov
from steklov import boundary
from steklov import (
    BoundaryFunction,
    QuadratureError,
    Rectangle,
    SIDES,
    Side,
    boundary_l2,
    integrate_boundary,
)

ABSTOL, RELTOL = 1e-12, 1e-10
HS = (1.0, 0.5, 0.1, 0.01)


def assert_within_target(f, exact):
    value, estimate = integrate_boundary(f, ABSTOL, RELTOL)
    target = max(ABSTOL, RELTOL * abs(exact))
    assert abs(value - exact) <= target
    assert estimate <= target


@pytest.mark.parametrize("h", HS)
@pytest.mark.parametrize("a, b", [(3.0, 7.0), (-0.5, 40.0)])
def test_exp_cos_integral(h, a, b):
    rect = Rectangle(h)
    f = BoundaryFunction.from_xy(lambda x, y: np.exp(a * x) * np.cos(b * y), rect)
    # vertical sides: e^{+-a} * 2 sin(b h) / b; horizontal: cos(b h) * 2 sinh(a) / a
    exact = 4.0 * math.cosh(a) * math.sin(b * h) / b + 4.0 * math.cos(b * h) * math.sinh(a) / a
    assert_within_target(f, exact)


@pytest.mark.parametrize("h", HS)
@pytest.mark.parametrize("c", [0.3, -0.71, 1.0 / 3.0])
def test_interior_kink_integral(h, c):
    rect = Rectangle(h)
    f = BoundaryFunction.from_xy(lambda x, y: np.abs(x - c), rect)
    # vertical sides 2h(1 - c) and 2h(1 + c); each horizontal side 1 + c^2
    assert_within_target(f, 4.0 * h + 2.0 + 2.0 * c * c)


@pytest.mark.parametrize("h", HS)
def test_corner_singular_integral(h):
    # zero on the vertical sides; sqrt(1 - x^2) on each horizontal side, with
    # square-root singularities at all four corners, integrates to pi / 2
    rect = Rectangle(h)
    assert_within_target(BoundaryFunction.from_expression("sqrt(abs(1 - x^2))", rect), math.pi)


@pytest.mark.parametrize("h", HS)
def test_boundary_l2_of_known_trace(h):
    rect = Rectangle(h)
    seen = []

    def trace(side, t):
        seen.append(isinstance(t, np.ndarray))
        return np.cos(5.0 * t) + (side is Side.G1)

    # integral of cos(5t)^2 over [-a, a] is a + sin(10a)/10; on G1 add
    # 2 * integral of cos(5t) plus the length 2h
    sq = sum(a + math.sin(10.0 * a) / 10.0 for a in (h, 1.0, h, 1.0))
    sq += 4.0 * math.sin(5.0 * h) / 5.0 + 2.0 * h
    assert boundary_l2(trace, rect) == pytest.approx(math.sqrt(sq / rect.perimeter), rel=1e-12, abs=1e-14)
    assert seen and all(seen)


@pytest.mark.parametrize("nan_where", ["everywhere", "near one corner"])
def test_nan_integrand_fails_within_limit(nan_where):
    rect = Rectangle(0.5)
    limit = 40
    calls = []

    def nan_data(x, y):
        calls.append(1)
        if nan_where == "everywhere":
            return np.full(np.shape(x), np.nan)
        return np.where(x + y > 1.4, np.nan, x)

    with pytest.raises(QuadratureError) as err:
        integrate_boundary(BoundaryFunction.from_xy(nan_data, rect), limit=limit)
    assert err.value.side in SIDES
    assert err.value.reason == f"no convergence within {limit} panel bisections" and err.value.floor is None
    # each round bisects at least one panel and calls the map once per side
    assert len(calls) <= len(SIDES) * (len(SIDES) * limit + 2)


def test_tolerance_below_rounding_gives_the_floor():
    f = BoundaryFunction.from_xy(lambda x, y: np.exp(x) * np.cos(3.0 * y), Rectangle(1.0))
    with pytest.raises(QuadratureError) as err:
        integrate_boundary(f, abstol=1e-18, reltol=1e-17)
    exc = err.value
    assert exc.reason == "the tolerance is below the rounding floor after 200 panel bisections"
    assert 0.0 < exc.estimate <= exc.floor < 1e-12
    assert str(exc).endswith(f"error estimate {exc.estimate:.3g}, rounding floor {exc.floor:.3g})")


def test_nonintegrable_pole_fails():
    # the panels that miss their targets near the pole grow in number each
    # round: the limit ends the refinement, not panels too short to split
    rect = Rectangle(1.0)
    f = BoundaryFunction.from_xy(lambda x, y: 1.0 / np.abs(x - 0.3), rect)
    with pytest.raises(QuadratureError):
        integrate_boundary(f)
    with pytest.raises(QuadratureError):
        boundary_l2(f.value, rect)


@pytest.mark.parametrize("tolerances", [(np.nan, RELTOL), (ABSTOL, np.nan), (np.inf, np.inf), (ABSTOL, np.inf), (0.0, RELTOL)],
                         ids=["nan-abstol", "nan-reltol", "inf-both", "inf-reltol", "zero-abstol"])
def test_tolerances_outside_zero_to_inf_are_refused_before_any_call(tolerances):
    calls = []

    def data(x, y):
        calls.append(1)
        return x

    with pytest.raises(ValueError, match="tolerances must be positive and finite"):
        integrate_boundary(BoundaryFunction.from_xy(data, Rectangle(0.5)), *tolerances)
    assert calls == []


def test_smooth_integral_takes_the_k49_sums_of_the_starting_panels():
    # two equal panels a side (nu 0), each of 49 Kronrod nodes: the value is
    # the K49 sum, the estimate the sum of the panels' |K49 - G24|
    rect = Rectangle(0.5)
    nodes = []

    def data(x, y):
        nodes.append(np.size(x))
        return np.exp(2.0 * x) * np.cos(90.0 * y)

    value, estimate = integrate_boundary(BoundaryFunction.from_xy(data, rect))
    assert sum(nodes) == 8 * 49
    t_ref, kronrod, gauss = boundary._kronrod_rule()
    sums = []
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        breaks = boundary._panel_breaks(hi - lo, 0.0)
        for a, b in zip(breaks[:-1], breaks[1:]):
            half = 0.5 * (b - a)
            x, y = rect.side_point(side, lo + 0.5 * (a + b) + half * t_ref)
            v = np.exp(2.0 * x) * np.cos(90.0 * y)
            sums.append((half * (kronrod @ v), half * (gauss @ v)))
    k49, g24 = np.array(sums).T
    assert value == pytest.approx(k49.sum(), rel=1e-14)
    assert estimate == pytest.approx(np.abs(k49 - g24).sum(), rel=1e-3)
    assert estimate > 1e-12  # G24 misses what K49 resolves, so the estimate is not rounding


def test_adaptive_rule_starts_on_the_coefficient_nodes():
    # the t > 0 starting nodes on G1 and G2 are bitwise the fixed node set's
    rect = Rectangle(0.5)
    nu = 150.3
    seen = {}

    def ones(side, t):
        seen.setdefault(side, t)
        return np.ones_like(t)

    boundary._integrate_panels(rect, ones, ABSTOL, RELTOL, 10, nu)
    for side, t, *_ in boundary._boundary_nodes(rect, nu):
        assert np.array_equal(seen[side][seen[side] > 0.0], t), side


@pytest.mark.parametrize("package", ["scipy", "numpy.polynomial", "steklov.expressions", "steklov.cells"])
def test_import_leaves_scipy_out(package):
    # numpy.polynomial is loaded by the first quadrature, expressions by the
    # first expression data and cells by the first CSV or cache, not by the import
    src = Path(steklov.__file__).resolve().parents[1]
    code = f"import sys, steklov; print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_public_names_are_listed():
    public = {name for name, obj in vars(steklov).items()
              if not name.startswith("_") and not isinstance(obj, type(steklov))}
    assert sorted(steklov.__all__) == sorted(public)
