"""The separable mode kernel: array evaluation agrees with the scalar paths.

The scalar mode formulas are those of scalar_reference."""

import dataclasses
import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    FamilyTag,
    GeometryError,
    ProblemKind,
    Rectangle,
    SIDES,
    boundary_partial_sum,
    boundary_sup,
    build_spectrum,
    build_spectrum_by_count,
    builtin_boundary,
    grid_points,
    solve,
    solve_dirichlet,
    solve_neumann,
    solve_robin,
    steklov_coefficients,
)

from steklov import spectrum as spectrum_module

import scalar_reference as ref

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
    assert any(md.family is FamilyTag.XY for md in spec.modes[1:])


def test_values_match_scalar_modes(spec):
    rng = np.random.default_rng(3)
    h = spec.rectangle.h
    x = np.concatenate([rng.uniform(-1, 1, 50), [1.0, -1.0, 0.0, 1.0]])
    y = np.concatenate([rng.uniform(-h, h, 50), [h, -h, 0.0, 0.0]])
    S = spec.values(x, y)
    assert S.shape == (spec.size - 1, len(x))
    for row, md in zip(S, spec.modes[1:]):
        close(row, [ref.value_unchecked(md, a, b) for a, b in zip(x.tolist(), y.tolist())])


def test_values_with_one_constant_coordinate(spec):
    # a side's constant coordinate passed once gives the same matrix, bit for
    # bit, as the same coordinate repeated at every node
    h = spec.rectangle.h
    t = np.linspace(-h, h, 70)
    for x, y in ((np.array([1.0]), t), (np.linspace(-1.0, 1.0, 70), np.array([h]))):
        full = spec.values(*np.broadcast_arrays(x, y))
        assert np.array_equal(spec.values(x, y), full)
        (fx, fy), (dfx, dfy) = spec._factors(x, y, derivative=True)
        (gx, gy), (dgx, dgy) = spec._factors(*np.broadcast_arrays(x, y), derivative=True)
        for one, every in ((fx, gx), (fy, gy), (dfx, dgx), (dfy, dgy)):
            assert np.array_equal(np.broadcast_to(one, every.shape), every)
    # expand passes it to each block of its points (1001 points: several blocks)
    w = np.random.default_rng(5).normal(size=(3, spec.size - 1))
    t = np.linspace(-h, h, 1001)
    for x, y in ((np.array([-1.0]), t), (t / h, np.array([h]))):
        assert np.array_equal(spec.expand(w, x, y), spec.expand(w, *np.broadcast_arrays(x, y)))


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
        want = co.gbar + math.fsum(v * ref.trace(md, side, t) for v, md in zip(co.values, spec.modes[1:]))
        assert isinstance(boundary_partial_sum(co, side, t), float)
        assert boundary_partial_sum(co, side, t) == pytest.approx(want, rel=TOL, abs=TOL)


def test_approximation_boundary_value_on_arrays_matches_scalar(spec):
    rect = spec.rectangle
    g = builtin_boundary("f1", rect)
    for u in (solve_dirichlet(g, spec, use_corner_reduction=True), solve_robin(g, 2.0, spec)):
        for side in SIDES:
            ts = side_params(rect, side)
            close(u.boundary_value(side, ts), [u.boundary_value(side, t) for t in ts.tolist()])
        x, y = 0.3, -0.2 * rect.h
        want = u._constant_and_lift(x, y) + math.fsum(
            w * ref.value_unchecked(md, x, y) for w, md in zip(u.weights, spec.modes[1:])
        )
        assert isinstance(u.eval(x, y), float)
        assert u.eval(x, y) == pytest.approx(want, rel=TOL, abs=TOL)


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


def boundary_and_corner_points(rect, n=9):
    """Points on all four sides, the four corners among them, plus the center."""
    h = rect.h
    ts = np.linspace(-1.0, 1.0, n)
    x = np.concatenate([np.ones(n), -np.ones(n), ts, ts, [0.0]])
    y = np.concatenate([h * ts, h * ts, np.full(n, h), np.full(n, -h), [0.0]])
    return x, y


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
def test_gradients_match_scalar_modes(h):
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, 80)
    x, y = boundary_and_corner_points(rect)
    (fx, fy), (dfx, dfy) = spec._factors(x, y, derivative=True)
    pts = list(zip(x.tolist(), y.tolist()))
    for j, md in enumerate(spec.modes[1:]):
        want = np.array([ref.gradient(md, a, b) for a, b in pts])
        scale = TOL * max(1.0, np.abs(want).max())
        np.testing.assert_allclose(dfx[j] * fy[j], want[:, 0], rtol=TOL, atol=scale)
        np.testing.assert_allclose(fx[j] * dfy[j], want[:, 1], rtol=TOL, atol=scale)
    w = np.random.default_rng(7).normal(size=spec.size - 1) / (1.0 + np.arange(80))
    gx, gy = spec.expand(w, x, y, derivative=True)
    for i, (a, b) in enumerate(pts):
        terms = [ref.gradient(md, a, b) for md in spec.modes[1:]]
        assert gx[i] == pytest.approx(math.fsum(wj * t[0] for wj, t in zip(w, terms)), rel=TOL, abs=TOL)
        assert gy[i] == pytest.approx(math.fsum(wj * t[1] for wj, t in zip(w, terms)), rel=TOL, abs=TOL)
    assert all(isinstance(v, float) for v in spec.expand(w, 0.3, -0.1 * h, derivative=True))


@pytest.fixture(scope="module")
def grid_cases():
    """Approximations with and without a corner lift, and constant-only ones."""
    sq, thin = Rectangle(1.0), Rectangle(0.6)
    return [
        solve_dirichlet(builtin_boundary("f1", sq), build_spectrum_by_count(sq, 41), use_corner_reduction=True),
        solve_robin(builtin_boundary("f2", thin), 2.0, build_spectrum_by_count(thin, 60)),
        solve_dirichlet(builtin_boundary("f2", thin), build_spectrum_by_count(thin, 0), use_corner_reduction=True),
        solve_dirichlet(builtin_boundary("f3", thin), build_spectrum_by_count(thin, 0)),
    ]


@pytest.mark.parametrize("nx, ny", [(7, 4), (3, 12), (2, 2), (31, 31)])
def test_eval_grid_matches_eval_array(grid_cases, nx, ny):
    for u in grid_cases:
        U = u.eval_grid(nx, ny)
        assert U.shape == (ny, nx)
        # both are the factor product on the grid's axes plus the constant and the lift
        np.testing.assert_array_equal(U, u.eval_array(*grid_points(u.rect, nx, ny)))


def assert_same_to_rounding(got, want):
    """A tensor grid and its flattened points sum the modes in different
    orders: equal to TOL times the scale of the values."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL * max(1.0, np.abs(want).max(initial=0.0)))


@pytest.fixture(scope="module", params=[1.0, 0.5, 0.1])
def meshgrid_cases(request):
    """Expansions at one h with 0, 41 and 400 modes, each with and without the
    corner lift; then, with 41 and 400 modes, the symmetric f1 (corner lift)
    and bd1 (Neumann), whose zero weights leave modes unevaluated."""
    rect = Rectangle(request.param)
    g = builtin_boundary("f3", rect)
    cases = []
    for count in (0, 41, 400):
        spec = build_spectrum_by_count(rect, count)
        cases += [solve_dirichlet(g, spec, use_corner_reduction=True), solve_dirichlet(g, spec)]
    assert cases[2].lift is not None and cases[3].lift is None
    for count in (41, 400):
        spec = build_spectrum_by_count(rect, count)
        symmetric = [solve_dirichlet(builtin_boundary("f1", rect), spec, use_corner_reduction=True),
                     solve_neumann(builtin_boundary("bd1", rect), spec)]
        assert all(len(u._terms[1]) < count for u in symmetric)
        cases += symmetric
    return cases


@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (2, 2), (5, 9), (31, 17)])
def test_meshgrid_matches_its_flattened_points(meshgrid_cases, shape):
    rect = meshgrid_cases[0].rect
    rng = np.random.default_rng(sum(shape))
    ny, nx = shape
    X, Y = np.meshgrid(rng.uniform(-1.0, 1.0, nx), rng.uniform(-rect.h, rect.h, ny))
    for u in meshgrid_cases:
        value = u.eval_array(X, Y)
        assert value.shape == shape
        assert_same_to_rounding(value.ravel(), u.eval_array(X.ravel(), Y.ravel()))
        for grid, flat in zip(u.gradient_arrays(X, Y), u.gradient_arrays(X.ravel(), Y.ravel())):
            assert grid.shape == shape
            assert_same_to_rounding(grid.ravel(), flat)


def test_other_two_dimensional_inputs_keep_the_blocked_path(meshgrid_cases):
    # an indexing="ij" grid and a meshgrid with one point moved are not tensor
    # grids: their values equal the flattened evaluation bit for bit
    rect = meshgrid_cases[0].rect
    xs, ys = np.linspace(-1.0, 1.0, 9), np.linspace(-rect.h, rect.h, 5)
    ij = np.meshgrid(xs, ys, indexing="ij")
    moved_x, moved_y = np.meshgrid(xs, ys), np.meshgrid(xs, ys)
    moved_x[0][2, 3] = 0.5 * (xs[3] + xs[4])
    moved_y[1][3, 2] = 0.5 * (ys[3] + ys[4])
    for u in meshgrid_cases:
        for X, Y in (ij, moved_x, moved_y):
            np.testing.assert_array_equal(u.eval_array(X, Y).ravel(), u.eval_array(X.ravel(), Y.ravel()))
            for grid, flat in zip(u.gradient_arrays(X, Y), u.gradient_arrays(X.ravel(), Y.ravel())):
                np.testing.assert_array_equal(grid.ravel(), flat)


def test_meshgrid_evaluates_the_factors_of_its_axes_only(monkeypatch):
    rect = Rectangle(0.7)
    u = solve_dirichlet(builtin_boundary("f1", rect), build_spectrum_by_count(rect, 41), use_corner_reduction=True)
    X, Y = grid_points(rect, 31, 17)
    columns = []
    apply_kinds = spectrum_module._apply_kinds

    def counting(z, spans, derivative):
        columns.append(z.shape[1])
        return apply_kinds(z, spans, derivative)

    monkeypatch.setattr(spectrum_module, "_apply_kinds", counting)
    for evaluate in (u.eval_array, u.gradient_arrays):
        columns.clear()
        evaluate(X, Y)
        assert 0 < sum(columns) <= 31 + 17
    columns.clear()
    u.eval_array(X.ravel(), Y.ravel())
    assert sum(columns) == 31 * 17


def test_eval_array_and_gradients_keep_shape_and_broadcast():
    rect = Rectangle(0.7)
    u = solve_dirichlet(builtin_boundary("f1", rect), build_spectrum_by_count(rect, 41), use_corner_reduction=True)
    X, Y = grid_points(rect, 9, 5)
    flat = u.eval_array(X.ravel(), Y.ravel())
    assert u.eval_array(X, Y).shape == (5, 9)
    assert_same_to_rounding(u.eval_array(X, Y).ravel(), flat)
    gx, gy = u.gradient_arrays(X, Y)
    fgx, fgy = u.gradient_arrays(X.ravel(), Y.ravel())
    assert gx.shape == gy.shape == (5, 9)
    assert_same_to_rounding(gx.ravel(), fgx)
    assert_same_to_rounding(gy.ravel(), fgy)
    xs = np.linspace(-0.9, 0.9, 6)
    along = u.eval_array(xs, 0.25)
    assert along.shape == (6,)
    close(along, [u.eval(a, 0.25) for a in xs.tolist()])
    bx, by = u.gradient_arrays(0.25, xs * rect.h)
    assert bx.shape == by.shape == (6,)
    for i, b in enumerate((xs * rect.h).tolist()):
        ex, ey = u.eval_gradient(0.25, b)
        assert (bx[i], by[i]) == (pytest.approx(ex, rel=TOL, abs=TOL), pytest.approx(ey, rel=TOL, abs=TOL))


def test_boundary_normal_derivative_on_arrays_matches_scalar(spec):
    rect = spec.rectangle
    g = builtin_boundary("f1", rect)
    for u in (solve_dirichlet(g, spec, use_corner_reduction=True), solve_robin(g, 2.0, spec)):
        for side in SIDES:
            ts = side_params(rect, side)
            dn = u.boundary_normal_derivative(side, ts)
            assert dn.shape == ts.shape
            close(dn, [u.boundary_normal_derivative(side, t) for t in ts.tolist()])
            t = float(ts[3])
            assert isinstance(u.boundary_normal_derivative(side, t), float)
            if u.lift is None:  # and the per-mode sum it replaces
                want = math.fsum(w * ref.normal_derivative_on(md, side, t) for w, md in zip(u.weights, spec.modes[1:]))
                assert u.boundary_normal_derivative(side, t) == pytest.approx(want, rel=TOL, abs=TOL)


def test_evaluators_stay_far_below_one_modes_by_points_matrix():
    """K = 80 modes at N = 2e5 points: one K x N matrix would take 128 MB."""
    rect = Rectangle(0.5)
    u = solve_dirichlet(builtin_boundary("f3", rect), build_spectrum_by_count(rect, 80), use_corner_reduction=True)
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-1.0, 1.0, 200_000), rng.uniform(-0.5, 0.5, 200_000)
    for run in (lambda: u.eval_array(x, y), lambda: u.gradient_arrays(x, y), lambda: u.eval_grid(500, 400)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


# The trig factors come from one tangent of the half angle; the bound is 2 ulp
# of 1 against libm's cos and sin of the same theta = nu * coordinate.
TRIG_ATOL = 4.5e-16


@pytest.fixture(scope="module", params=[1.0, 0.5, 0.001])
def ceiling_factors(request):
    """_factors of an 8000-mode spectrum (the nu ceiling) at edge, zero, tiny
    and random coordinates, with the trig and hyperbolic rows of every
    family mode picked out.

    "evaluations" holds ((trig, dtrig), (hyp, dhyp)) per evaluation of the
    same points: one pass over both axes with and without derivative, and
    each axis on its own against one coordinate of the other (a side's),
    without and with derivative. The derivatives are None without it."""
    h = request.param
    spec = build_spectrum_by_count(Rectangle(h), 8000)
    rng = np.random.default_rng(11)
    special = np.array([1.0, -1.0, 0.0, -0.0, 0.5, -0.25, 1e-4, -3e-7, 1e-12, 5e-300])
    x = np.concatenate([special, rng.uniform(-1.0, 1.0, 150)])
    y = h * np.concatenate([special, rng.uniform(-1.0, 1.0, 150)])
    arrays = spec.arrays
    family = arrays.code[1:] != spectrum_module._XY
    code = arrays.code[1:][family]
    hyp_x = (spectrum_module._HYP_AXIS[code] == 0)[:, None]
    pick = lambda m_x, m_y, along_x: np.where(along_x, m_x[family], m_y[family])

    def kinds(factors, derivatives):
        return tuple((pick(*factors, along), None if derivatives is None else pick(*derivatives, along))
                     for along in (~hyp_x, hyp_x))

    def per_axis(derivative):
        (fx, _), dx = spec._factors(x, np.array([h]), derivative)
        (_, fy), dy = spec._factors(np.array([-1.0]), y, derivative)
        return kinds((fx, fy), (dx[0], dy[1]) if derivative else None)

    evaluations = [kinds(*spec._factors(x, y, derivative=True)), kinds(*spec._factors(x, y)),
                   per_axis(False), per_axis(True)]
    return {
        "nu": arrays.nu[1:][family, None],
        "cos": spectrum_module._COS[code][:, None],
        "cosh": spectrum_module._COSH[code][:, None],
        "norm": arrays.norm_scaled[1:][family, None],
        "scale": arrays.hyp_scale[1:][family, None],
        "trig_v": np.where(hyp_x, y, x),
        "hyp_v": np.where(hyp_x, x, y),
        "evaluations": evaluations,
    }


def test_trig_factor_rows_match_libm(ceiling_factors):
    c = ceiling_factors
    nu, cos = c["nu"], c["cos"]
    theta = nu * c["trig_v"]
    assert nu.max() > 3000.0
    want = np.where(cos, np.cos(theta), np.sin(theta))
    # the derivatives -nu sin and nu cos: the same bound per unit nu, plus the
    # rounding of both products
    dwant = np.where(cos, -nu * np.sin(theta), nu * np.cos(theta))
    # sin keeps its relative accuracy at small angles
    small = ~cos & (np.abs(theta) <= 1e-3) & (theta != 0.0)
    assert small.sum() > 1000
    for (f, df), _ in c["evaluations"]:
        assert np.abs(f - want).max() <= TRIG_ATOL
        if df is not None:
            assert np.all(np.abs(df - dwant) <= TRIG_ATOL * nu + np.spacing(np.abs(dwant)))
        assert np.all(np.abs(f - want)[small] <= TRIG_ATOL * np.abs(want)[small])
        assert np.all(f[~cos & (theta == 0.0)] == 0.0) and np.all(f[cos & (theta == 0.0)] == 1.0)
        # with or without derivative, on both axes or one: the same bits
        assert np.array_equal(f.view(np.int64), c["evaluations"][0][0][0].view(np.int64))


def test_hyperbolic_factor_rows_are_the_exp_formulas_bit_for_bit(ceiling_factors):
    # the exponentially scaled cosh and sinh, each kind evaluated on its own;
    # a sinh row is 0.0 at both zeros, as np.sign(-0.0) = 0.0 makes it
    c = ceiling_factors
    nu, norm, scale, cosh_rows = c["nu"], c["norm"], c["scale"], c["cosh"]
    z = nu * c["hyp_v"]
    assert np.any(np.signbit(z) & (z == 0.0))  # -0.0 is among the coordinates
    av = np.abs(z)
    half = np.exp(av - scale)
    half *= 0.5
    av *= -2.0
    sinh = np.sign(z) * half * (-np.expm1(av))
    cosh = half * (np.exp(av) + 1.0)
    want = np.where(cosh_rows, norm * cosh, norm * sinh)
    dwant = np.where(cosh_rows, (norm * nu) * sinh, (norm * nu) * cosh)
    for _, (f, df) in c["evaluations"]:
        assert np.array_equal(f.view(np.int64), want.view(np.int64))
        if df is not None:
            assert np.array_equal(df.view(np.int64), dwant.view(np.int64))


def test_array_evaluators_check_the_domain():
    # outside the rectangle the 80-mode sum of f3 on R_0.5 grows like
    # exp(nu * dist): 3.4e4 at (1.5, 0), its gradient 4.5e6
    rect = Rectangle(0.5)
    u = solve_dirichlet(builtin_boundary("f3", rect), build_spectrum_by_count(rect, 80))
    cases = (([0.2, 1.5], [0.0, 0.0], "(1.5, 0.0)"), (0.3, [0.1, -0.5000001], "(0.3, -0.5000001)"),
             ([0.0, float("nan")], 0.2, "(nan, 0.2)"), (np.zeros((2, 1)), [0.1, 0.2, 0.7], "(0.0, 0.7)"))
    for x, y, point in cases:
        for evaluate in (u.eval_array, u.gradient_arrays):
            with pytest.raises(GeometryError, match=re.escape(f"point {point} outside")):
                evaluate(x, y)
    corners = np.array([-1.0, 1.0]), np.array([-0.5, 0.5])
    close(u.eval_array(*corners), [u.eval(-1.0, -0.5), u.eval(1.0, 0.5)])


# ---------------------------------------------------------------------------
# only the modes with a nonzero weight are evaluated
# ---------------------------------------------------------------------------

# data, kind, h, corner reduction, modes; data with a parity symmetry
SYMMETRIC_CASES = [
    ("f1", "dirichlet", 1.0, True, 41),
    ("f1", "dirichlet", 1.0, False, 41),
    ("f1", "dirichlet", 0.8, True, 41),
    ("f1", "dirichlet", 0.8, False, 41),
    ("bd2", "neumann", 0.5, False, 80),
    ("bd3", "robin", 0.8, False, 60),
    ("bd1", "neumann", 0.1, False, 400),
]


@functools.lru_cache(maxsize=None)
def catalog_solve(name, kind, h, corner, count):
    """The solve of catalog data over count modes, b = 1 for Robin."""
    rect = Rectangle(h)
    b = 1.0 if kind == "robin" else 0.0
    g = builtin_boundary(name, rect, 1.0 if kind == "robin" else None)
    return solve(ProblemKind(kind, b), g, build_spectrum_by_count(rect, count), use_corner_reduction=corner)


def full_sum(u, x, y):
    """constant + lift + the sum over every mode of u's spectrum, zero weights included."""
    return u._constant_and_lift(x, y) + u.spectrum.expand(u.weights, x, y)


def full_gradient(u, x, y):
    """The gradient of full_sum, term by term."""
    gx, gy = u.spectrum.expand(u.weights, x, y, derivative=True)
    lift = u._constant_and_lift(x, y, derivative=True)
    return (gx, gy) if lift is None else (gx + lift[0], gy + lift[1])


@pytest.mark.parametrize("case", SYMMETRIC_CASES, ids=lambda c: "-".join(map(str, c)))
def test_evaluators_of_the_nonzero_weights_agree_with_the_full_sum(case):
    u = catalog_solve(*case)
    rect, h = u.rect, u.rect.h
    spec, w = u._terms
    rows = u.spectrum.rows_of(spec)[1:] - 1
    assert 0 < w.size < u.spectrum.size - 1
    assert np.array_equal(w, u.weights[rows]) and np.all(w != 0.0)
    assert np.all(np.delete(u.weights, rows) == 0.0)
    rng = np.random.default_rng(23)
    x, y = rng.uniform(-1.0, 1.0, 3000), rng.uniform(-h, h, 3000)  # several blocks
    assert_same_to_rounding(u.eval_array(x, y), full_sum(u, x, y))
    for got, want in zip(u.gradient_arrays(x, y), full_gradient(u, x, y)):
        assert_same_to_rounding(got, want)
    X, Y = np.meshgrid(np.sort(rng.uniform(-1.0, 1.0, 23)), np.sort(rng.uniform(-h, h, 17)))
    assert_same_to_rounding(u.eval_array(X, Y), full_sum(u, X, Y))
    for got, want in zip(u.gradient_arrays(X, Y), full_gradient(u, X, Y)):
        assert_same_to_rounding(got, want)
    assert_same_to_rounding(u.eval_grid(31, 19), full_sum(u, *grid_points(rect, 31, 19)))
    a, b = x[:20], y[:20]
    assert_same_to_rounding(np.array([u.eval(*p) for p in zip(a.tolist(), b.tolist())]), full_sum(u, a, b))
    for got, want in zip(zip(*(u.eval_gradient(*p) for p in zip(a.tolist(), b.tolist()))), full_gradient(u, a, b)):
        assert_same_to_rounding(np.array(got), want)
    for side in SIDES:
        ts = side_params(rect, side)
        px, py = rect.side_point(side, ts)
        assert_same_to_rounding(u.boundary_value(side, ts), full_sum(u, px, py))
        gx, gy = full_gradient(u, px, py)
        nx, ny = rect.outward_normal(side)
        assert_same_to_rounding(u.boundary_normal_derivative(side, ts), gx * nx + gy * ny)
    sub = u.restrict(u.spectrum.head((u.spectrum.size - 1) // 2))
    assert sub._terms[0].size < sub.spectrum.size
    assert_same_to_rounding(sub.eval_array(x, y), full_sum(sub, x, y))


def test_data_without_a_zero_weight_evaluate_the_spectrum_itself():
    u = catalog_solve("f3", "dirichlet", 1.0, False, 41)
    assert np.all(u.weights != 0.0)
    spec, w = u._terms
    assert spec is u.spectrum and w is u.weights


@pytest.mark.parametrize("case, evaluated", [
    (("f1", "dirichlet", 1.0, True, 41), 21),
    (("bd3", "robin", 0.8, False, 60), 30),
    (("bd2", "neumann", 0.5, False, 80), 20),
])
def test_modes_evaluated_by_the_dense_evaluation_cases(case, evaluated):
    # f1 on the square keeps 11 class-III weights near 1e-18: numpy's y**4
    # is not exactly even at every quadrature node
    spec, w = catalog_solve(*case)._terms
    assert spec.size - 1 == w.size == evaluated


@pytest.mark.parametrize("kind", ["dirichlet", "robin", "neumann"])
def test_zero_data_evaluate_no_mode(kind):
    rect = Rectangle(0.8)
    b = 1.0 if kind == "robin" else 0.0
    g = BoundaryFunction.from_expression("0*x", rect)
    u = solve(ProblemKind(kind, b), g, build_spectrum_by_count(rect, 41), use_corner_reduction=kind == "dirichlet")
    spec, w = u._terms
    assert spec.size == 1 and w.shape == (0,)
    x, y = np.linspace(-1.0, 1.0, 7), np.linspace(-0.8, 0.8, 7)
    X, Y = grid_points(rect, 9, 5)  # a tensor grid: the product of K = 0 factor matrices
    outputs = [
        ((), u.eval(0.3, -0.2)), *(((), c) for c in u.eval_gradient(0.3, -0.2)),
        ((7,), u.eval_array(x, y)), ((5, 9), u.eval_array(X, Y)), ((5, 9), u.eval_grid(9, 5)),
        *(((7,), c) for c in u.gradient_arrays(x, y)), *(((5, 9), c) for c in u.gradient_arrays(X, Y)),
    ]
    for side in SIDES:
        ts = side_params(rect, side, 6)
        outputs += [((6,), u.boundary_value(side, ts)), ((6,), u.boundary_normal_derivative(side, ts))]
    for shape, out in outputs:
        assert np.shape(out) == shape and np.all(np.asarray(out) == 0.0)
    assert isinstance(u.eval(0.3, -0.2), float)


def test_a_nan_weight_is_evaluated():
    u = catalog_solve("f1", "dirichlet", 1.0, True, 41)
    w = np.array(u.weights)
    w[np.flatnonzero(w == 0.0)[0]] = math.nan
    v = dataclasses.replace(u, weights=w)
    assert len(v._terms[1]) == len(u._terms[1]) + 1
    X, Y = grid_points(v.rect, 5, 4)
    outputs = [v.eval(0.2, 0.1), v.eval_array(X.ravel(), Y.ravel()), v.eval_array(X, Y), v.eval_grid(5, 4),
               *v.gradient_arrays(X.ravel(), Y.ravel()), *v.gradient_arrays(X, Y),
               v.boundary_value(SIDES[0], side_params(v.rect, SIDES[0], 5))]
    assert all(np.isnan(out).all() for out in outputs)


# ---------------------------------------------------------------------------
# one point: expand at float coordinates against a one-point block
# ---------------------------------------------------------------------------


def same_bits(got, want) -> bool:
    """The same shape and the same floats, bit for bit: the sign of zero and NaN included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@functools.lru_cache(maxsize=None)
def one_point_spectrum(selection, h, count):
    """The global spectrum of count modes, or the per-family one of depth count // 8."""
    rect = Rectangle(h)
    return build_spectrum_by_count(rect, count) if selection == "global" else build_spectrum(rect, count // 8)


def one_point_points(rect, rng, n):
    """n random points of the closed rectangle, then the axes at +-0.0, the
    four corners and five points on each side (t = 0 gives -0.0 on G2 and G3)."""
    h = rect.h
    points = list(zip(rng.uniform(-1.0, 1.0, n).tolist(), rng.uniform(-h, h, n).tolist()))
    points += [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.3, 0.0), (-0.7, -0.0),
               (0.0, 0.4 * h), (-0.0, -0.6 * h), (1.0, h), (-1.0, h), (-1.0, -h), (1.0, -h)]
    for side in SIDES:
        points += zip(*(c.tolist() for c in rect.side_point(side, side_params(rect, side, 5))))
    return points


ONE_POINT_SPECTRA = [(selection, h, count) for selection in ("per-family", "global")
                     for h in (1.0, 0.5, 0.1, 1e-3) for count in (41, 400)]


@pytest.mark.parametrize("case", ONE_POINT_SPECTRA, ids=lambda c: "-".join(map(str, c)))
def test_expand_at_one_point_is_the_one_point_block(case):
    # 2000 random points per h over its four spectra
    spec = one_point_spectrum(*case)
    rng = np.random.default_rng(ONE_POINT_SPECTRA.index(case))
    w = rng.standard_normal((2, spec.size - 1))
    w[1, ::7] = 0.0
    for x, y in one_point_points(spec.rectangle, rng, 500):
        px, py = np.array([x]), np.array([y])
        got = spec.expand(w[0], x, y)
        assert type(got) is float and same_bits(got, spec.expand(w[0], px, py)[0]), (x, y)
        assert same_bits(spec.expand(w, x, y), spec.expand(w, px, py)[:, 0]), (x, y)
        gradient = spec.expand(w[1], x, y, derivative=True)
        assert all(type(c) is float for c in gradient)
        assert same_bits(gradient, [c[0] for c in spec.expand(w[1], px, py, derivative=True)]), (x, y)


def one_point_solves(h, count):
    """Solves whose evaluators take the one-point path: f1 with its corner
    lift, on every mode or on the nonzero weights only, zero data (no mode)
    and the f1 solve with a NaN weight."""
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, count)
    u = solve(ProblemKind.dirichlet(), builtin_boundary("f1", rect), spec, use_corner_reduction=True)
    w = np.array(u.weights)
    w[np.argmin(np.abs(w))] = math.nan
    zero = solve(ProblemKind.dirichlet(), BoundaryFunction.from_expression("0*x", rect), spec)
    f3 = solve(ProblemKind.dirichlet(), builtin_boundary("f3", rect), spec)
    return [u, dataclasses.replace(u, weights=w), zero, f3]


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1e-3])
@pytest.mark.parametrize("count", [41, 400])
def test_approximation_at_one_point_is_its_one_point_array(h, count):
    rng = np.random.default_rng(int(count / h))
    solves = one_point_solves(h, count)
    for u in solves:
        for x, y in one_point_points(u.rect, rng, 40):
            px, py = np.array([x]), np.array([y])
            got = u.eval(x, y)
            assert type(got) is float and same_bits(got, u.eval_array(px, py)[0]), (x, y)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the one-sided gradient on the boundary
                gradient = u.eval_gradient(x, y)
            assert all(type(c) is float for c in gradient)
            assert same_bits(gradient, [c[0] for c in u.gradient_arrays(px, py)]), (x, y)
    zero = solves[2]
    assert zero._terms[0].size == 1 and zero.eval(0.3, 0.0) == 0.0


def test_one_point_coordinates_of_any_scalar_type_give_the_same_float():
    u = catalog_solve("f1", "dirichlet", 1.0, True, 41)
    spec, w = u._terms
    for x, y in ((1, 0), (0, -1), (-1, 1), (0, 0), (0.25, -0.5)):
        want = u.eval(float(x), float(y))
        expansion = spec.expand(w, float(x), float(y))
        gradient = spec.expand(w, float(x), float(y), derivative=True)
        for cx, cy in ((x, y), (np.float64(x), np.float64(y)), (np.array(float(x)), np.array(float(y))),
                       (np.float64(x), y), (np.array(x), np.float64(y))):
            got = u.eval(cx, cy)
            assert type(got) is float and same_bits(got, want), (cx, cy)
            assert same_bits(spec.expand(w, cx, cy), expansion)
            assert same_bits(spec.expand(w, cx, cy, derivative=True), gradient)


# ---------------------------------------------------------------------------
# factor plans: the builder against its former formulation
# ---------------------------------------------------------------------------


def reference_factor_plan(arrays, along=None):
    """_factor_plan as it was written before its gathers were merged: the
    interleaved factor tables, a stable argsort of int64 kinds and one
    indexing per column."""
    kinds = spectrum_module._KINDS
    code = arrays.code[1:]
    n = code.size
    kind, axis = np.empty(2 * n, dtype=int), np.empty(2 * n, dtype=int)
    kind[0::2], kind[1::2] = spectrum_module._HYP_KIND[code], spectrum_module._TRIG_KIND[code]
    axis[0::2] = spectrum_module._HYP_AXIS[code]
    axis[1::2] = 1 - axis[0::2]
    nu = np.repeat(np.where(code == FamilyTag.XY.order, 1.0, arrays.nu[1:]), 2)
    coef, scale = np.ones(2 * n), np.zeros(2 * n)
    coef[0::2], scale[0::2] = arrays.norm_scaled[1:], arrays.hyp_scale[1:]
    index = np.arange(2 * n) if along is None else np.flatnonzero(axis == along)
    order = index[np.argsort(kind[index], kind="stable")]
    kind, axis, nu, coef, scale = kind[order], axis[order], nu[order, None], coef[order, None], scale[order, None]
    rows = np.zeros((2, n), dtype=int)
    rows[axis, order // 2] = np.arange(order.size)
    dcoef = np.where(kind[:, None] == kinds.index("cos"), -1.0, 1.0) * coef * nu
    arg = np.where(kind[:, None] <= kinds.index("sin"), 0.5 * nu, nu)
    edges = np.searchsorted(kind, np.arange(len(kinds) + 1)).tolist()
    spans = [
        (name, slice(edges[first], edges[end]), edges[first + 1] - edges[first])
        + tuple(c[edges[first]:edges[end]] for c in (coef, dcoef, scale))
        for name, first, end in spectrum_module._SPANS
        if edges[end] > edges[first]
    ]
    return axis, arg, spans, rows


def assert_same_plan(got, want):
    """axis, arg, each span's kind, slice, split, coef, dcoef and scale, and rows: equal dtypes, shapes and bits."""
    (axis, arg, spans, rows), (want_axis, want_arg, want_spans, want_rows) = got, want
    assert axis.dtype == want_axis.dtype and np.array_equal(axis, want_axis)
    assert rows.dtype == want_rows.dtype and np.array_equal(rows, want_rows)
    assert same_bits(arg, want_arg)
    assert [span[:3] for span in spans] == [span[:3] for span in want_spans]
    for span, want_span in zip(spans, want_spans):
        assert all(same_bits(c, d) for c, d in zip(span[3:], want_span[3:]))


def plan_cases():
    """Per-family and global spectra (xy on the square, none below it, a
    thin one) and their row subsets from take, head and select."""
    for h in (1.0, 0.5, 1e-3):
        rect = Rectangle(h)
        for spec in (build_spectrum(rect, 5), build_spectrum_by_count(rect, 400), build_spectrum_by_count(rect, 1)):
            yield spec
            if spec.size > 8:
                yield spec.select(1)
                yield spec.head(spec.size // 2)
                yield spec.take(np.append(0, np.arange(1, spec.size, 3)))
                yield spec.take(np.append(0, np.arange(spec.size - 1, 0, -2)))  # descending rows
    yield build_spectrum_by_count(Rectangle(1.0), 0)
    for case in SYMMETRIC_CASES:
        yield catalog_solve(*case)._terms[0]


def test_factor_plans_equal_their_former_formulation():
    for spec in plan_cases():
        for along in (None, 0, 1):
            assert_same_plan(spectrum_module._factor_plan(spec.arrays, along), reference_factor_plan(spec.arrays, along))
        assert_same_plan(spec._factor_table, reference_factor_plan(spec.arrays))
        for along, plan in enumerate(spec._axis_tables):
            assert_same_plan(plan, reference_factor_plan(spec.arrays, along))
        axis, arg, spans, rows = reference_factor_plan(spec.arrays)
        flat = [span[:3] + tuple(c[:, 0] for c in span[3:]) for span in spans]
        assert_same_plan(spec._point_plan, (axis, arg[:, 0], flat, rows))
