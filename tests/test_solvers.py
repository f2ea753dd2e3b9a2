"""Expansion solvers: identities, residuals, grids, and the corner lift."""

import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    BoundaryGradientWarning,
    FamilyTag,
    IncompatibleDataError,
    ProblemKind,
    Rectangle,
    Side,
    SIDES,
    boundary_partial_sum,
    build_spectrum,
    build_spectrum_by_count,
    builtin_boundary,
    exact_solution_for,
    grid_points,
    solve,
    solve_dirichlet,
    solve_neumann,
    solve_robin,
    steklov_coefficients,
)
from steklov.catalog import f1, f2

import scalar_reference as ref


@pytest.fixture(scope="module")
def rect():
    return Rectangle(1.0)


def test_problem_kind_validation():
    with pytest.raises(ValueError):
        ProblemKind.robin(0.0)
    with pytest.raises(ValueError):
        ProblemKind("dirichlet", b=1.0)
    assert ProblemKind.robin(2.0).b == 2.0


def test_dirichlet_constant_data(rect, spec_pf5):
    g = BoundaryFunction.constant(5.0, rect)
    u = solve_dirichlet(g, spec_pf5)
    for p in ((0.0, 0.0), (0.9, -0.9), (1.0, 0.0)):
        assert u.eval(*p) == pytest.approx(5.0, abs=1e-9)


def test_dirichlet_eigen_data_identity(rect, spec_pf5):
    md = spec_pf5.modes[7]
    g = BoundaryFunction.from_xy(lambda x, y: ref.value_unchecked(md, x, y), rect)
    u = solve_dirichlet(g, spec_pf5)
    for p in ((0.25, -0.6), (0.0, 0.0), (0.95, 0.2)):
        assert u.eval(*p) == pytest.approx(ref.value(md, *p), abs=1e-8)


def test_robin_constant_data(rect, spec_pf5):
    b, c = 2.5, 1.7
    g = BoundaryFunction.constant(b * c, rect)
    u = solve_robin(g, b, spec_pf5)
    assert u.eval(0.3, -0.8) == pytest.approx(c, abs=1e-9)


def test_robin_eigen_data_identity(rect, spec_pf5):
    # data (b + delta_k) s_k must return exactly s_k: pins the eigenvalue convention
    b = 1.0
    for md in (spec_pf5.modes[1], spec_pf5.modes[10]):
        g = BoundaryFunction.from_xy(
            lambda x, y, md=md: (b + md.delta) * ref.value_unchecked(md, x, y), rect
        )
        u = solve_robin(g, b, spec_pf5)
        for p in ((0.4, 0.1), (-0.3, 0.9), (1.0, 0.5)):
            assert u.eval(*p) == pytest.approx(ref.value(md, *p), abs=1e-9)


def test_neumann_eigen_data_identity(rect, spec_pf5):
    md = spec_pf5.modes[4]
    g = BoundaryFunction.from_xy(lambda x, y: md.delta * ref.value_unchecked(md, x, y), rect)
    u = solve_neumann(g, spec_pf5)
    for p in ((0.4, 0.1), (-0.3, 0.9)):
        assert u.eval(*p) == pytest.approx(ref.value(md, *p), abs=1e-9)


def test_neumann_incompatible_data_rejected(rect, spec_pf5):
    g = BoundaryFunction.constant(1.0, rect)
    with pytest.raises(IncompatibleDataError) as err:
        solve_neumann(g, spec_pf5)
    assert err.value.gbar == pytest.approx(1.0, abs=1e-10)


def test_neumann_zero_boundary_mean(rect, spec_pf5):
    g = builtin_boundary("bd1", rect)
    u = solve_neumann(g, spec_pf5)
    from steklov import integrate_boundary

    mean = integrate_boundary(
        BoundaryFunction.from_xy(lambda x, y: u.eval(x, y), rect)
    )[0] / rect.perimeter
    assert abs(mean) <= 1e-8


def test_linearity(rect, spec_pf5):
    g1 = builtin_boundary("f1", rect)
    g2 = builtin_boundary("f2", rect)
    alpha, beta = 2.0, -3.0
    combo = BoundaryFunction.from_xy(lambda x, y: alpha * f1(x, y) + beta * f2(x, y), rect)
    co1 = steklov_coefficients(g1, spec_pf5)
    co2 = steklov_coefficients(g2, spec_pf5)
    for kind in (ProblemKind.dirichlet(), ProblemKind.robin(1.5)):
        uc = solve(kind, combo, spec_pf5)
        u1 = solve(kind, g1, spec_pf5, coefficients=co1)
        u2 = solve(kind, g2, spec_pf5, coefficients=co2)
        for p in ((0.2, 0.3), (-0.8, 0.5), (0.0, -1.0)):
            assert uc.eval(*p) == pytest.approx(
                alpha * u1.eval(*p) + beta * u2.eval(*p), abs=1e-9
            )


def test_dirichlet_trace_consistency(rect, spec_pf5):
    g = builtin_boundary("f3", rect)
    co = steklov_coefficients(g, spec_pf5)
    u = solve_dirichlet(g, spec_pf5, coefficients=co)
    for side in SIDES:
        for t in (-0.73, 0.0, 0.51):
            assert u.boundary_value(side, t) == pytest.approx(
                boundary_partial_sum(co, side, t), abs=1e-9
            )


def test_robin_boundary_residual(rect, spec_pf5):
    b = 1.0
    g = builtin_boundary("bd3", rect, b)
    co = steklov_coefficients(g, spec_pf5)
    u = solve_robin(g, b, spec_pf5, coefficients=co)
    rng = random.Random(5)
    dmax = spec_pf5.arrays.delta[-1]
    for _ in range(60):
        side = rng.choice(SIDES)
        lo, hi = rect.side_interval(side)
        t = lo + (hi - lo) * (0.01 + 0.98 * rng.random())
        lhs = u.boundary_normal_derivative(side, t) + b * u.boundary_value(side, t)
        assert abs(lhs - boundary_partial_sum(co, side, t)) <= 1e-8 * (1.0 + dmax)


def test_neumann_flux_residual(rect, spec_pf5):
    g = builtin_boundary("bd2", rect)
    co = steklov_coefficients(g, spec_pf5)
    u = solve_neumann(g, spec_pf5, coefficients=co)
    gm = lambda side, t: co.gbar + sum(
        v * ref.trace(md, side, t) for v, md in zip(co.values, spec_pf5.modes[1:])
    )
    for side in SIDES:
        for t in (-0.9, -0.2, 0.44):
            assert u.boundary_normal_derivative(side, t) == pytest.approx(
                gm(side, t), abs=1e-8 * (1.0 + spec_pf5.arrays.delta[-1])
            )


def test_gradient_matches_finite_differences(rect, spec_pf5):
    g = builtin_boundary("f2", rect)
    u = solve_dirichlet(g, spec_pf5)
    rng = random.Random(17)
    eps = 1e-5
    for _ in range(50):
        x = rng.uniform(-0.9, 0.9)
        y = rng.uniform(-0.9, 0.9)
        gx, gy = u.eval_gradient(x, y)
        fx = (u.eval(x + eps, y) - u.eval(x - eps, y)) / (2 * eps)
        fy = (u.eval(x, y + eps) - u.eval(x, y - eps)) / (2 * eps)
        scale = max(1.0, abs(gx), abs(gy))
        assert abs(gx - fx) <= 1e-7 * scale
        assert abs(gy - fy) <= 1e-7 * scale


def test_constant_gradient_zero(rect, spec_pf5):
    u = solve_dirichlet(BoundaryFunction.constant(4.0, rect), spec_pf5)
    gx, gy = u.eval_gradient(0.2, 0.2)
    assert abs(gx) <= 1e-10 and abs(gy) <= 1e-10


def test_gradient_on_boundary_is_flagged(rect, spec_pf5):
    u = solve_dirichlet(builtin_boundary("f1", rect), spec_pf5)
    with pytest.warns(BoundaryGradientWarning):
        u.eval_gradient(1.0, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u.eval_gradient(0.5, 0.5)  # interior point: no warning


def test_eval_grid_corners_and_shape(rect, spec_pf5):
    g = builtin_boundary("f1", rect)
    u = solve_dirichlet(g, spec_pf5)
    U = u.eval_grid(2, 2)
    assert U.shape == (2, 2)
    assert U[0, 0] == pytest.approx(u.eval(-1.0, -1.0), rel=1e-12)
    assert U[1, 1] == pytest.approx(u.eval(1.0, 1.0), rel=1e-12)
    const = solve_dirichlet(BoundaryFunction.constant(2.0, rect), spec_pf5)
    Uc = const.eval_grid(5, 4)
    assert Uc.shape == (4, 5)
    assert np.allclose(Uc, Uc[0, 0])
    with pytest.raises(ValueError):
        u.eval_grid(1, 5)


def test_eval_domain_check(rect, spec_pf5):
    u = solve_dirichlet(builtin_boundary("f1", rect), spec_pf5)
    from steklov import GeometryError

    with pytest.raises(GeometryError):
        u.eval(1.2, 0.0)


def test_corner_reduction_equivalence(rect, spec_pf5):
    g = builtin_boundary("f1", rect)
    u_red = solve_dirichlet(g, spec_pf5, use_corner_reduction=True)
    assert u_red.lift == pytest.approx((-4.0, 0.0, 0.0, 0.0), abs=1e-12)
    g1 = g.shift(4.0)
    u_plain = solve_dirichlet(g1, spec_pf5)
    for p in ((0.9, 0.9), (0.0, 0.0), (-0.5, 0.7)):
        assert u_red.eval(*p) == pytest.approx(-4.0 + u_plain.eval(*p), abs=1e-9)


def bits(a):
    """The float64 bits of a float or an array, for comparisons that see the sign of 0."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def lift_sum(u, x, y, derivative=False):
    """constant + (a0 + a1*x + a2*y + a3*x*y), or the gradient (a1 + a3*y, a2 + a3*x),
    written out in full."""
    a0, a1, a2, a3 = u.lift
    if derivative:
        return a1 + a3 * y, a2 + a3 * x
    return u.constant_term + (a0 + a1 * x + a2 * y + a3 * x * y)


# data, h, which lift coefficients are not 0.0
LIFT_CASES = [
    ("f1", 1.0, (True, False, False, False)),
    ("x^3", 0.6, (False, True, False, False)),
    ("exp(x + 2*y)", 0.6, (True, True, True, True)),
]


@pytest.mark.parametrize("data, h, nonzero", LIFT_CASES)
@pytest.mark.parametrize("constant", [None, -0.0])
def test_lift_is_added_bit_for_bit(data, h, nonzero, constant):
    # every evaluator of a corner-reduced solve is its expansion plus the
    # lift written out in full, whichever lift terms are left out as 0.0
    rect = Rectangle(h)
    g = builtin_boundary(data, rect) if data == "f1" else BoundaryFunction.from_expression(data, rect)
    u = solve_dirichlet(g, build_spectrum_by_count(rect, 41), use_corner_reduction=True)
    assert tuple(a != 0.0 for a in u.lift) == nonzero
    if constant is not None:
        u = dataclasses.replace(u, constant_term=constant)
    spec, w = u._terms
    same = lambda got, want: np.testing.assert_array_equal(bits(got), bits(want))
    for x, y in ((0.3, -0.2 * h), (-0.0, 0.5 * h), (1.0, -h)):
        same(u.eval(x, y), spec.expand(w, x, y) + lift_sum(u, x, y))
    rng = np.random.default_rng(7)
    x = np.concatenate([[-1.0, -0.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 500)])
    y = np.concatenate([[h, 0.0, -0.0, -h], rng.uniform(-h, h, 500)])
    same(u.eval_array(x, y), spec.expand(w, x, y) + lift_sum(u, x, y))
    for got, expansion, lift in zip(u.gradient_arrays(x, y), spec.expand(w, x, y, True), lift_sum(u, x, y, True)):
        same(got, expansion + lift)
    xs, ys = np.linspace(-1.0, 1.0, 9), np.linspace(-h, h, 7)
    want = spec.expand_grid(w, xs, ys) + lift_sum(u, xs, ys[:, None])
    same(u.eval_grid(9, 7), want)
    same(u.eval_array(*grid_points(rect, 9, 7)), want)
    for side in SIDES:
        ts = np.linspace(*rect.side_interval(side), 11)
        px, py = rect.side_point(side, ts)
        same(u.boundary_value(side, ts), spec.expand(w, px, py) + lift_sum(u, px, py))
        px, py = rect.side_point(side, 0.0)
        same(u.boundary_value(side, 0.0), spec.expand(w, px, py) + lift_sum(u, px, py))


def test_lift_keeps_the_sign_of_zero(rect, spec_pf5):
    # lifts and constants of 0.0 and -0.0 at coordinates of either zero: the
    # constant plus the lift, and its gradient, are the full formula bit for bit
    u = solve_dirichlet(builtin_boundary("f1", rect), spec_pf5, use_corner_reduction=True)
    x = np.array([-0.0, 0.0, -0.0, 0.0, 0.5, -0.5])
    y = np.array([-0.0, -0.0, 0.0, 0.0, -0.0, 0.25])
    zeros = (0.0, -0.0)
    for lift in itertools.chain(itertools.product(zeros, repeat=4), [(-4.0, 0.0, -0.0, 0.0), (-0.0, 1.0, 0.0, -0.0)]):
        for constant in (0.0, -0.0, 1.5):
            v = dataclasses.replace(u, lift=lift, constant_term=constant)
            got = v._constant_and_lift(x, y)
            assert np.array_equal(bits(np.broadcast_to(got, x.shape)), bits(lift_sum(v, x, y))), (lift, constant)
            for got, want in zip(v._constant_and_lift(x, y, derivative=True), lift_sum(v, x, y, True)):
                assert np.array_equal(bits(np.broadcast_to(got, x.shape)), bits(np.broadcast_to(want, x.shape))), lift
            for i in range(x.size):
                assert bits(v._constant_and_lift(x[i], y[i])) == bits(lift_sum(v, x[i], y[i])), (lift, constant, i)


def test_max_principle_bound(rect, deep_square):
    # interior error is controlled by the boundary trace error
    for name in ("f1", "f2", "f3"):
        g = builtin_boundary(name, rect)
        exact = exact_solution_for(name)
        co = steklov_coefficients(g, deep_square)
        sub = deep_square.head(23)
        u = solve_dirichlet(g, sub, coefficients=co.restrict(sub))
        X, Y = grid_points(rect, 101, 101)
        interior_sup = np.abs(np.vectorize(exact.value)(X, Y) - u.eval_array(X, Y)).max()
        # the closed grid reaches corners, so the boundary samples must too
        boundary_sup = 0.0
        for side in SIDES:
            lo, hi = rect.side_interval(side)
            for i in range(1001):
                t = lo + i * (hi - lo) / 1000
                boundary_sup = max(
                    boundary_sup, abs(g.value(side, t) - u.boundary_value(side, t))
                )
        assert interior_sup <= boundary_sup + 1e-6


def test_restrict_matches_fresh_solve(rect, deep_square):
    g = builtin_boundary("f2", rect)
    co = steklov_coefficients(g, deep_square)
    u_deep = solve_dirichlet(g, deep_square, coefficients=co)
    sub = deep_square.head(15)
    u_sub = u_deep.restrict(sub)
    u_fresh = solve_dirichlet(g, sub)
    for p in ((0.3, 0.3), (-0.9, 0.1)):
        assert u_sub.eval(*p) == pytest.approx(u_fresh.eval(*p), abs=1e-10)


def test_coefficients_of_another_spectrum_are_rejected():
    # coefficients for 24 global modes paired with 24 per-family modes by
    # position evaluated 0.580378 at (0.3, 0.2) instead of 0.580411
    thin = Rectangle(0.5)
    g = builtin_boundary("f2", thin)
    spec = build_spectrum(thin, 3)
    others = (
        steklov_coefficients(g, build_spectrum_by_count(thin, 24)),
        steklov_coefficients(g, build_spectrum(thin, 2)),
        steklov_coefficients(builtin_boundary("f2", Rectangle(0.6)), build_spectrum(Rectangle(0.6), 3)),
    )
    for co in others:
        for run in (
            lambda: solve_dirichlet(g, spec, coefficients=co),
            lambda: solve_robin(g, 2.0, spec, coefficients=co),
            lambda: solve_neumann(g, spec, mean_tol=math.inf, coefficients=co),
        ):
            with pytest.raises(ValueError, match="another spectrum"):
                run()
    # coefficients of an equal spectrum built anew are accepted
    u = solve_dirichlet(g, spec, coefficients=steklov_coefficients(g, build_spectrum(thin, 3)))
    assert u.eval(0.3, 0.2) == pytest.approx(solve_dirichlet(g, spec).eval(0.3, 0.2), abs=1e-12)
    assert u.eval(0.3, 0.2) == pytest.approx(0.580411, abs=1e-6)


def test_solve_refuses_options_of_another_kind(spec_pf5):
    g = builtin_boundary("bd1", spec_pf5.rectangle)
    with pytest.raises(ValueError, match="corner reduction applies to Dirichlet problems, not robin"):
        solve(ProblemKind.robin(1.0), g, spec_pf5, use_corner_reduction=True)
    with pytest.raises(ValueError, match="corner reduction applies to Dirichlet problems, not neumann"):
        solve(ProblemKind.neumann(), g, spec_pf5, use_corner_reduction=True)
    for kind in (ProblemKind.dirichlet(), ProblemKind.robin(1.0)):
        with pytest.raises(ValueError, match=f"mean_tol applies to Neumann problems, not {kind.name}"):
            solve(kind, g, spec_pf5, mean_tol=1e-8)
