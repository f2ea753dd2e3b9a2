"""Boundary data, quadrature, coefficients, partial sums, corner reduction."""

import math

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    CornerMismatchError,
    FamilyTag,
    GeometryError,
    Rectangle,
    Side,
    SIDES,
    boundary_partial_sum,
    builtin_boundary,
    corner_bilinear_reduction,
    integrate_boundary,
    steklov_coefficients,
)
from steklov import expressions
from steklov.catalog import f1

import scalar_reference as ref


@pytest.fixture(scope="module")
def rect():
    return Rectangle(1.0)


def test_eval_boundary_builtin_values(rect):
    bd1 = builtin_boundary("bd1", rect)
    assert bd1.value(Side.G1, 0.33) == 1.0
    assert bd1.value(Side.G2, -0.7) == 1.0
    assert bd1.value(Side.G4, 0.0) == -1.0
    f2 = builtin_boundary("f2", rect)
    assert f2.value(Side.G1, 0.1) == pytest.approx(1.0 / 1.01, rel=1e-15)
    zero = BoundaryFunction.constant(0.0, rect)
    assert zero.value(Side.G3, -0.4) == 0.0


def test_two_sided_corner_values(rect):
    """Each corner is seen from its two sides, in counterclockwise order,
    each side's map called at the corner itself; any other point is refused."""
    bd1 = builtin_boundary("bd1", rect)
    vals = bd1.corner_values((-1.0, 1.0))
    assert vals[Side.G2] == 1.0 and vals[Side.G3] == -1.0
    for h in (1.0, 0.3):
        # each side's map tells its side and the point it was called at
        g = BoundaryFunction.from_sides(Rectangle(h), {side: lambda x, y, k=side.value: 100.0 * k + 10.0 * x + y
                                                       for side in SIDES})
        pairs = {(1.0, h): (Side.G1, Side.G2), (-1.0, h): (Side.G2, Side.G3),
                 (-1.0, -h): (Side.G3, Side.G4), (1.0, -h): (Side.G4, Side.G1)}
        for (x, y), sides in pairs.items():
            vals = g.corner_values((x, y))
            assert tuple(vals) == sides
            assert vals == {side: 100.0 * side.value + 10.0 * x + y for side in sides}
        for point in ((1.0, 0.0), (0.5, h), (1.0, 1.5 * h)):
            with pytest.raises(GeometryError, match="not a corner"):
                g.corner_values(point)


def test_integrate_constant_is_perimeter(rect):
    one = BoundaryFunction.constant(1.0, rect)
    val, est = integrate_boundary(one)
    assert val == pytest.approx(rect.perimeter, abs=1e-12)
    assert est < 1e-8


def test_integrate_x_squared(rect):
    g = BoundaryFunction.from_xy(lambda x, y: x * x, rect)
    val, _ = integrate_boundary(g)
    assert val == pytest.approx(4.0 + 4.0 / 3.0, abs=1e-10)


def exact_side_polynomial_integral(coeffs, a):
    """integral over [-a, a] of a polynomial given low-order first (oracle)."""
    return sum(c * (a ** (k + 1) - (-a) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))


@pytest.mark.parametrize("degree", range(0, 9))
def test_polynomial_quadrature_exact_up_to_degree_8(degree):
    rect = Rectangle(0.7)
    coeffs = [((-1) ** k) * (k + 1) / 3.0 for k in range(degree + 1)]
    g = BoundaryFunction.from_side_polynomials(rect, {s: coeffs for s in SIDES})
    val, _ = integrate_boundary(g)
    want = sum(
        exact_side_polynomial_integral(coeffs, rect.side_interval(s)[1]) for s in SIDES
    )
    assert val == pytest.approx(want, abs=1e-10)


def test_mode_product_integrates_to_zero(spec_pf5):
    rect = spec_pf5.rectangle
    mi, mj = spec_pf5.modes[1], spec_pf5.modes[8]
    g = BoundaryFunction.from_xy(
        lambda x, y: ref.value_unchecked(mi, x, y) * ref.value_unchecked(mj, x, y), rect
    )
    val, _ = integrate_boundary(g)
    assert abs(val) <= 1e-8 * rect.perimeter


def test_coefficients_of_constant(spec_pf5):
    g = BoundaryFunction.constant(3.5, spec_pf5.rectangle)
    co = steklov_coefficients(g, spec_pf5)
    assert co.gbar == pytest.approx(3.5, abs=1e-12)
    assert max(abs(v) for v in co.values) <= 1e-10


def test_coefficients_of_mode_trace(spec_pf5):
    md = spec_pf5.modes[5]
    g = BoundaryFunction.from_xy(lambda x, y: ref.value_unchecked(md, x, y), spec_pf5.rectangle)
    co = steklov_coefficients(g, spec_pf5)
    assert co.values[md.index - 1] == pytest.approx(1.0, abs=1e-8)
    others = [abs(v) for m, v in zip(spec_pf5.modes[1:], co.values) if m.key != md.key]
    assert max(others) <= 1e-8
    assert abs(co.gbar) <= 1e-10


def test_f1_mean_value(rect, spec_pf5):
    # each side of f1 contributes -8/5; the boundary mean is -4/5
    co = steklov_coefficients(builtin_boundary("f1", rect), spec_pf5)
    assert co.gbar == pytest.approx(-0.8, abs=1e-10)


def test_bessel_inequality(rect, spec_pf5):
    g = builtin_boundary("f1", rect)
    co = steklov_coefficients(g, spec_pf5)
    gsq = integrate_boundary(
        BoundaryFunction.from_xy(lambda x, y: f1(x, y) ** 2, rect)
    )[0] / rect.perimeter
    assert co.weighted_norm_sq <= gsq + 1e-8


def test_partial_sum_constant_only(rect):
    from steklov import build_spectrum_by_count

    spec0 = build_spectrum_by_count(rect, 0)
    g = BoundaryFunction.constant(2.5, rect)
    co = steklov_coefficients(g, spec0)
    assert boundary_partial_sum(co, Side.G1, 0.3) == pytest.approx(2.5, abs=1e-12)


def test_pythagoras_identity(rect, deep_square):
    # squared data norm splits exactly into kept plus residual energy
    g = builtin_boundary("f2", rect)
    co = steklov_coefficients(g, deep_square)
    sub = deep_square.head(23)
    cox = co.restrict(sub)
    from steklov.catalog import f2 as f2_fn

    gsq = integrate_boundary(
        BoundaryFunction.from_xy(lambda x, y: f2_fn(x, y) ** 2, rect)
    )[0] / rect.perimeter
    from scipy.integrate import quad

    resid = 0.0
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        v, _ = quad(
            lambda t: (g.value(side, t) - boundary_partial_sum(cox, side, t)) ** 2,
            lo,
            hi,
            epsabs=1e-12,
            epsrel=1e-9,
            limit=200,
        )
        resid += v
    resid /= rect.perimeter
    assert resid == pytest.approx(gsq - cox.weighted_norm_sq, rel=1e-6)


def test_projection_idempotence(rect, spec_pf5):
    g = builtin_boundary("f3", rect)
    co = steklov_coefficients(g, spec_pf5)

    def gm(x, y):
        acc = co.gbar
        for v, md in zip(co.values, spec_pf5.modes[1:]):
            acc += v * ref.value_unchecked(md, x, y)
        return acc

    co2 = steklov_coefficients(BoundaryFunction.from_xy(gm, rect), spec_pf5)
    assert co2.gbar == pytest.approx(co.gbar, abs=1e-8)
    for a, b in zip(co.values, co2.values):
        assert b == pytest.approx(a, abs=1e-8)


def test_corner_reduction_f1(rect):
    g = builtin_boundary("f1", rect)
    a0, a1, a2, a3, g1 = corner_bilinear_reduction(g, rect)
    assert (a0, a1, a2, a3) == pytest.approx((-4.0, 0.0, 0.0, 0.0), abs=1e-12)
    for corner in ((1.0, rect.h), (-1.0, rect.h), (-1.0, -rect.h), (1.0, -rect.h)):
        assert all(abs(v) <= 1e-12 for v in g1.corner_values(corner).values())


def test_corner_reduction_exact_for_bilinear_data():
    rect = Rectangle(0.8)
    g = BoundaryFunction.from_xy(lambda x, y: 2.0 - 0.5 * x + 1.5 * y, rect)
    a0, a1, a2, a3, g1 = corner_bilinear_reduction(g, rect)
    assert (a0, a1, a2, a3) == pytest.approx((2.0, -0.5, 1.5, 0.0), abs=1e-12)
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        for t in (lo, 0.5 * (lo + hi), hi):
            assert abs(g1.value(side, t)) <= 1e-12


def test_corner_reduction_xy_trace(rect):
    g = BoundaryFunction.from_xy(lambda x, y: x * y, rect)
    a0, a1, a2, a3, g1 = corner_bilinear_reduction(g, rect)
    assert (a0, a1, a2, a3) == pytest.approx((0.0, 0.0, 0.0, 1.0), abs=1e-12)
    assert abs(g1.value(Side.G1, 0.4)) <= 1e-12


def test_corner_reduction_rejects_discontinuous(rect):
    with pytest.raises(CornerMismatchError):
        corner_bilinear_reduction(builtin_boundary("bd1", rect), rect)


def test_bd3_requires_unit_robin_constant(rect):
    with pytest.raises(ValueError):
        builtin_boundary("bd3", rect, b=2.0)
    g = builtin_boundary("bd3", rect, b=1.0)
    assert g.value(Side.G1, 0.1) == pytest.approx(2.0 * math.e * math.sin(0.1), rel=1e-15)
    # side G2 runs leftward: t = 0.5 is the point (-0.5, 1)
    assert g.value(Side.G2, 0.5) == pytest.approx(
        math.exp(-0.5) * (math.cos(1.0) + math.sin(1.0)), rel=1e-15
    )
    assert g.value(Side.G3, 0.2) == 0.0


def test_boundary_data_from_spec(rect):
    from steklov import boundary_data_from_spec

    g = boundary_data_from_spec({"builtin": "f1"}, rect)
    assert g.value(Side.G1, 0.0) == 1.0
    g = boundary_data_from_spec({"expr": "x + 2*y"}, rect)
    assert g.value(Side.G2, -0.25) == pytest.approx(0.25 + 2.0, rel=1e-15)
    g = boundary_data_from_spec(
        {"sides": {"G1": 1.0, "G2": "x*y", "G3": [0.0, 2.0], "G4": -1.0}}, rect
    )
    assert g.value(Side.G1, 0.9) == 1.0
    assert g.value(Side.G2, 0.5) == pytest.approx(-0.5, rel=1e-14)
    assert g.value(Side.G3, 0.25) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValueError):
        boundary_data_from_spec({"nope": 1}, rect)


def test_expression_domain_error_is_evaluated_twice_at_most(rect, monkeypatch):
    """ln(x) data on G2, where x = -t: numpy raises on the array, the
    expression's float pass raises at the first point, and the data's array
    map raises that error without calling the map point by point again."""
    calls = []
    monkeypatch.setitem(expressions._NP_FUNCTIONS, "ln", lambda v: calls.append("array") or np.log(v))
    monkeypatch.setitem(expressions._FUNCTIONS, "ln", lambda v: calls.append("float") or math.log(v))
    g = BoundaryFunction.from_expression("ln(x)", rect)
    for data in (g, g.shift(1.0)):
        calls.clear()
        with pytest.raises(ValueError, match="^math domain error$"):
            data.value(Side.G2, np.linspace(0.5, -0.5, 5))
        assert calls == ["array", "float"], data.name
