"""Error norms, bounds, truncation studies, and the invariant suite."""

import math
import random

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    FamilyTag,
    PER_FAMILY,
    ProblemKind,
    Rectangle,
    Side,
    SIDES,
    boundary_l2,
    boundary_partial_sum,
    boundary_sup,
    build_spectrum,
    builtin_boundary,
    coefficient_tail,
    dnorm_sq,
    exact_solution_for,
    grid_points,
    interior_l2,
    interior_sup,
    invariant_suite,
    robin_bound,
    robin_dnorm_tail_sq,
    solve_dirichlet,
    solve_neumann,
    solve_robin,
    spectral_tail,
    steklov_coefficients,
)
from steklov import spectrum as spectrum_module
from steklov.analysis import (
    HARMONICITY_FLOOR,
    HARMONICITY_ORDER,
    SCALING_TOL,
    STEKLOV_RESIDUAL_TOL,
    check_harmonicity,
    check_scaling,
    check_steklov_residual,
)
from steklov.spectrum import Spectrum
from steklov.tables import POLICY_PREFIX, TableWorkspace

import scalar_reference as ref


@pytest.fixture(scope="module")
def rect():
    return Rectangle(1.0)


def test_rerr_matches_published_value(rect, deep_square):
    # rerr_inf of f1 at M=2 on the square, against the printed 6.59553e-3
    g = builtin_boundary("f1", rect)
    co = steklov_coefficients(g, deep_square)
    cox = co.restrict(deep_square.head(15))
    diff = lambda s, t: g.value(s, t) - boundary_partial_sum(cox, s, t)
    sup = boundary_sup(diff, rect, include_corners=False)
    l2 = boundary_l2(diff, rect)
    gsup = boundary_sup(lambda s, t: g.value(s, t), rect, include_corners=False)
    assert sup / gsup == pytest.approx(6.59553e-3, rel=0.05)
    gl2 = boundary_l2(lambda s, t: g.value(s, t), rect)
    assert l2 / gl2 == pytest.approx(5.22051e-3, rel=0.01)


def test_rerr_scale_invariance(rect, deep_square):
    g = builtin_boundary("f3", rect)
    g10 = BoundaryFunction.from_xy(lambda x, y: 10.0 * exact_solution_for("f3").value(x, y), rect)
    sub = deep_square.head(15)
    out = []
    for data in (g, g10):
        co = steklov_coefficients(data, sub)
        diff = lambda s, t: data.value(s, t) - boundary_partial_sum(co, s, t)
        base = lambda s, t: data.value(s, t)
        out.append(
            (
                boundary_sup(diff, rect, 400) / boundary_sup(base, rect, 400),
                boundary_l2(diff, rect) / boundary_l2(base, rect),
            )
        )
    assert out[0][0] == pytest.approx(out[1][0], rel=1e-10)
    assert out[0][1] == pytest.approx(out[1][1], rel=1e-10)


def test_spectral_pythagoras_all_catalog_data(rect, deep_square):
    for name in ("f1", "f2", "f3", "bd1", "bd2", "bd3"):
        g = builtin_boundary(name, rect, 1.0 if name == "bd3" else None)
        co = steklov_coefficients(g, deep_square)
        cox = co.restrict(deep_square.head(23))
        gsq = boundary_l2(lambda s, t: g.value(s, t), rect) ** 2
        errsq = boundary_l2(
            lambda s, t: g.value(s, t) - boundary_partial_sum(cox, s, t), rect
        ) ** 2
        assert errsq == pytest.approx(gsq - cox.weighted_norm_sq, rel=1e-6, abs=1e-12)


def test_h1_tail_identity(rect, deeper_square):
    # gradient error energy equals perimeter times the spectral tail, within 1%
    g = builtin_boundary("f1", rect)
    exact = exact_solution_for("f1")
    co = steklov_coefficients(g, deeper_square)
    for count in (15, 23):
        sub = deeper_square.head(count)
        u = solve_dirichlet(g, sub, coefficients=co.restrict(sub))

        def grad_err(X, Y):
            gx, gy = u.gradient_arrays(X, Y)
            ex = np.vectorize(lambda a, b: exact.gradient(a, b)[0])(X, Y)
            ey = np.vectorize(lambda a, b: exact.gradient(a, b)[1])(X, Y)
            return np.sqrt((gx - ex) ** 2 + (gy - ey) ** 2)

        quad_val = interior_l2(grad_err, rect) ** 2
        tail = rect.perimeter * spectral_tail(co, count)
        assert quad_val == pytest.approx(tail, rel=0.01)


def test_dnorm_of_normalized_mode(rect, spec_pf5):
    # the weighted graph norm of a mode is 1 + delta
    from steklov.solvers import SteklovApproximation
    from steklov.boundary import SteklovCoefficients

    for md in (spec_pf5.modes[3], spec_pf5.modes[12]):
        co = SteklovCoefficients(spec_pf5, 0.0, tuple(
            1.0 if m.key == md.key else 0.0 for m in spec_pf5.modes[1:]
        ), (0.0,) * spec_pf5.size)
        u = SteklovApproximation(ProblemKind.dirichlet(), spec_pf5, co, co.values, 0.0)
        assert dnorm_sq(u) == pytest.approx(1.0 + md.delta, rel=1e-6)


def test_robin_bound_zero_tail(rect, spec_pf5):
    md = spec_pf5.modes[1]
    g = BoundaryFunction.from_xy(lambda x, y: 2.0 * ref.value_unchecked(md, x, y), rect)
    co = steklov_coefficients(g, spec_pf5)
    m = spec_pf5.size - 1
    assert coefficient_tail(co, 5) <= 1e-12
    assert robin_bound(co, 1.0, 5) <= 1e-11
    with pytest.raises(ValueError):
        robin_bound(co, 1.0, m)  # no delta_{m+1} available


def test_robin_bound_monotone_and_dominates(rect, deep_square):
    b = 1.0
    g = builtin_boundary("bd3", rect, b)
    co = steklov_coefficients(g, deep_square)
    bounds = [robin_bound(co, b, m) for m in range(1, 11)]
    assert all(y <= x * (1 + 1e-12) for x, y in zip(bounds, bounds[1:]))
    for m in range(1, 11):
        measured = robin_dnorm_tail_sq(co, b, m)
        assert measured <= bounds[m - 1] * (1 + 1e-12)
    # dual route at one depth: quadrature graph norm of (deep - truncated)
    m = 5
    u_deep = solve_robin(g, b, deep_square, coefficients=co)
    u_m = u_deep.restrict(deep_square.head(m))
    diff_weights = tuple(
        wd - (u_m.weights[i] if i < m else 0.0) for i, wd in enumerate(u_deep.weights)
    )
    from steklov.solvers import SteklovApproximation

    diff = SteklovApproximation(
        ProblemKind.robin(b), deep_square, co, diff_weights, 0.0
    )
    measured_quad = dnorm_sq(diff)
    assert measured_quad <= robin_bound(co, b, m) * (1 + 1e-6)
    assert measured_quad == pytest.approx(robin_dnorm_tail_sq(co, b, m), rel=1e-6)


def test_invariant_suite_passes(spec_pf5):
    report = invariant_suite(spec_pf5, seed=0)
    assert report.passed, "\n".join(c.line() for c in report.checks)
    names = {c.name for c in report.checks}
    assert {"boundary-orthonormality", "steklov-residual", "interior-harmonicity",
            "delta-monotone-per-family", "dilation-scaling"} <= names


def test_invariant_suite_seed_determinism(spec_pf5):
    a = invariant_suite(spec_pf5, seed=7)
    b = invariant_suite(spec_pf5, seed=8)
    assert a.passed == b.passed


def test_invariant_suite_detects_corrupted_norm(square):
    from steklov import build_spectrum

    spec = build_spectrum(square, 1)
    norm_scaled = spec.arrays.norm_scaled.copy()
    norm_scaled[3] *= 1.01  # the third nonconstant mode
    broken = Spectrum(square, spec.arrays._replace(norm_scaled=norm_scaled), spec.selection, spec.depth)
    report = invariant_suite(broken, seed=0)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "boundary-orthonormality" in failing


def failing_checks(spec):
    return {c.name for c in invariant_suite(spec, seed=0).checks if not c.passed}


def test_invariant_suite_detects_corrupted_delta(square):
    spec = build_spectrum(square, 1)
    assert check_steklov_residual(spec, STEKLOV_RESIDUAL_TOL, random.Random(0)).passed
    assert check_scaling(spec, SCALING_TOL).passed
    delta = spec.arrays.delta.copy()
    delta[3] *= 1.0 + 1e-6
    broken = Spectrum(square, spec.arrays._replace(delta=delta), spec.selection, spec.depth)
    assert {"steklov-residual", "dilation-scaling"} <= failing_checks(broken)


def test_invariant_suite_detects_unharmonic_kernel(square, monkeypatch):
    # a kernel whose hyperbolic and trigonometric factors of one mode use different nu
    spec = build_spectrum(square, 1)
    assert check_harmonicity(spec, HARMONICITY_ORDER, HARMONICITY_FLOOR, random.Random(0)).passed
    j = next(i for i, md in enumerate(spec.modes[1:]) if md.family is FamilyTag.F1)
    plan = spectrum_module._factor_plan

    def skewed_plan(arrays, along=None):
        axis, nu, groups, rows = plan(arrays, along)
        trig = 1 - spectrum_module._HYP_AXIS[arrays.code[j + 1]]
        if along is None or along == trig:
            nu[rows[trig, j]] *= 1.1  # the groups hold views of nu
        return axis, nu, groups, rows

    monkeypatch.setattr(spectrum_module, "_factor_plan", skewed_plan)
    assert "interior-harmonicity" in failing_checks(build_spectrum(square, 1))


def test_single_constant_spectrum_passes(square):
    from steklov import build_spectrum_by_count

    spec = build_spectrum_by_count(square, 0)
    assert invariant_suite(spec, seed=0).passed


def test_per_family_sweep_matches_square_table(rect):
    [(_, l2)] = TableWorkspace().sweeps([builtin_boundary("f1", rect)], PER_FAMILY)
    want = (5.22051e-3, 1.57535e-3, 3.1167e-4)  # rerr_2 at M = 2, 3, 5
    assert l2[1:] / l2[0] == pytest.approx(want, rel=0.01)
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(l2[1:], l2[2:]))


def test_robin_sweep_against_exact_solution(rect):
    # bd3 under Robin b = 1 against e^x sin y: the error falls with M, the
    # graph-norm bound of the M = 2 truncation is finite, and the maximum
    # principle holds the interior error under the boundary one. robin_bound
    # reads the first modes of the coefficients' spectrum, so the truncation
    # is a series prefix
    g, kind = builtin_boundary("bd3", rect, 1.0), ProblemKind.robin(1.0)
    ws = TableWorkspace()
    [(sup, l2)] = ws.sweeps([g], POLICY_PREFIX, kind)
    assert l2[1] > l2[2]
    base, sub = ws.base_spectrum(1.0, POLICY_PREFIX), ws.truncation(1.0, kind.name, 2, POLICY_PREFIX)
    co = ws.coefficients(g, base)
    assert 0.0 < robin_bound(co, 1.0, sub.size - 1) < math.inf
    u = solve_robin(g, 1.0, base, coefficients=co).restrict(sub)
    exact = exact_solution_for("bd3").value
    assert interior_sup(lambda X, Y: exact(X, Y) - u.eval_array(X, Y), rect) <= sup[1] + 1e-6


def test_finite_expansion_converges_to_zero_error(rect, spec_pf5):
    co_data = steklov_coefficients(builtin_boundary("f2", rect), spec_pf5.select(2))
    gm = BoundaryFunction.from_xy(
        lambda x, y: co_data.gbar
        + sum(v * ref.value_unchecked(md, x, y)
              for v, md in zip(co_data.values, spec_pf5.select(2).modes[1:])),
        rect,
        "f2 at M = 2",  # the workspace memoises data by name
    )
    [(_, l2)] = TableWorkspace().sweeps([gm], PER_FAMILY)
    assert l2[2] <= 1e-8  # M = 3


def test_interior_beats_boundary_for_experiments(rect, deep_square):
    # at the deepest published truncation the midregion error is far smaller
    for name, kind, count in (("bd1", "n", 40), ("bd2", "n", 40), ("bd3", "r", 39)):
        g = builtin_boundary(name, rect, 1.0 if name == "bd3" else None)
        exact = exact_solution_for(name)
        co = steklov_coefficients(g, deep_square)
        sub = deep_square.head(count)
        cox = co.restrict(sub)
        u = (solve_neumann(g, sub, coefficients=cox) if kind == "n"
             else solve_robin(g, 1.0, sub, coefficients=cox))
        X, Y = grid_points(rect, 101, 101)
        E = np.abs(np.vectorize(exact.value)(X, Y) - u.eval_array(X, Y))
        center = (np.abs(X) <= 0.5) & (np.abs(Y) <= 0.5)
        assert E[center].max() < E.max()


def test_zero_mean_solution_leaves_an_odd_solution_as_it_is():
    # bd1's solution x + y is odd under p -> -p, so its boundary mean is exactly 0
    from steklov.catalog import zero_mean_solution

    rect = Rectangle(0.5)
    u = exact_solution_for("bd1").value
    X, Y = grid_points(rect, 13, 9)
    assert np.array_equal(zero_mean_solution(u, rect)(X, Y), u(X, Y))
    shifted = zero_mean_solution(exact_solution_for("bd2").value, rect)
    assert shifted(0.0, 0.0) == pytest.approx(-13.0 / 36.0, abs=1e-12)
