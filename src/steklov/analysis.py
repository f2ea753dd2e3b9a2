"""Error norms, convergence reports, theoretical bounds, and invariant checks.

Norm conventions used throughout:

* boundary L2 norms carry the 1/perimeter weight, matching the inner product
  that makes the normalized eigenfunctions orthonormal;
* boundary sup norms are sampled on dense per-side grids (they are reported
  as sampled sups, not exact suprema);
* interior L2 norms are plain integrals over the rectangle via tensor
  Gauss-Legendre quadrature;
* the graph norm reported by `dnorm_sq` is (1/perimeter) * (integral of
  |grad u|^2 + boundary integral of u^2), under which a normalized mode has
  squared norm exactly 1 + delta;
* rerr_inf and rerr_2 are ratios of boundary error norms to the data (or
  exact-solution) norms, so they are weight and scale invariant.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .boundary import (
    BoundaryFunction,
    SteklovCoefficients,
    _boundary_nodes,
    _integrate_panels,
    _nu_max,
    _readonly,
    mode_gram_matrix,
    steklov_coefficients,
)
from .catalog import zero_mean_solution
from .geometry import Rectangle, Side, SIDES
from .solvers import (
    DIRICHLET,
    NEUMANN,
    ProblemKind,
    SteklovApproximation,
    grid_points,
    solve,
)
from .spectrum import (
    FamilyTag,
    PER_FAMILY,
    Spectrum,
    build_spectrum,
)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def boundary_l2(fn: Callable[[Side, np.ndarray], np.ndarray], rect: Rectangle,
                abstol: float = 1e-12, reltol: float = 1e-9) -> float:
    """Weighted boundary L2 norm of a (side, t) map, by panel-adaptive quadrature.

    fn is called with numpy arrays of side parameters and returns the values
    there, as for boundary_sup; (abstol, reltol) apply to the integral of fn^2.
    """
    return float(_boundary_l2s(fn, rect, 1, abstol, reltol)[0])


def _boundary_l2s(fn, rect: Rectangle, entries: int, abstol: float = 1e-12, reltol: float = 1e-9) -> np.ndarray:
    """boundary_l2 of each of the `entries` rows of fn's (entries, n) values."""
    sq, _ = _integrate_panels(rect, lambda side, t: fn(side, t) ** 2, abstol, reltol, 250, entries=entries)
    return np.sqrt(np.maximum(sq, 0.0) / rect.perimeter)


# samples_per_side and include_corners stay parameters: the benchmark's tracer binds them.
def boundary_sup(fn: Callable[[Side, np.ndarray], np.ndarray], rect: Rectangle,
                 samples_per_side: int = 1000, include_corners: bool = True) -> float:
    """Sampled boundary sup of a (side, t) map.

    fn is called once per side with a numpy array of side parameters, the
    nodes of _sup_nodes, and returns the values there. A NaN value makes the
    sup NaN.
    """
    return float(np.max([np.abs(fn(side, ts)).max(initial=0.0)
                         for side, ts in _sup_nodes(rect, samples_per_side, include_corners)]))


def _sup_nodes(rect: Rectangle, samples_per_side: int = 1000, include_corners: bool = True):
    """(side, t) per side: the nodes lo + i*step (i = 0..n) with corners, or
    the cell midpoints lo + (i + 0.5)*step (i = 0..n-1) without."""
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        step = (hi - lo) / samples_per_side
        if include_corners:
            yield side, lo + np.arange(samples_per_side + 1) * step
        else:
            yield side, lo + (np.arange(samples_per_side) + 0.5) * step


def _truncation_errors(ref: Callable[[Side, np.ndarray], np.ndarray], u: SteklovApproximation,
                       subs: Sequence[Spectrum]) -> tuple[np.ndarray, np.ndarray]:
    """(sup, L2): the boundary_sup and boundary_l2 of ref, then of ref - u|sub
    for every sub, from one sweep of the boundary.

    u is an expansion over a base spectrum, and each sub a sub-spectrum of
    it: u|sub is u.restrict(sub), the weight row u.weights masked to sub's
    modes with u's constant term and lift. Both arrays hold 1 + len(subs)
    entries. The sup is sampled on boundary_sup's nodes, and the L2 norms
    share one panel-adaptive quadrature with boundary_l2's tolerances. The
    modes are evaluated once per node block for all subs.
    """
    rect = u.rect
    masks = np.zeros((len(subs), u.weights.size))
    for mask, sub in zip(masks, subs):
        mask[u.spectrum.rows_of(sub)[1:] - 1] = 1.0
    weights = u.weights * masks

    def errors(side, t):
        out = np.empty((1 + len(subs), t.size))
        out[0] = ref(side, t)
        x, y = rect.side_point(side, t)
        # the side's fixed coordinate as one value: its factors are evaluated once
        x, y = (x[:1], y) if side.is_vertical else (x, y[:1])
        np.subtract(out[0], u._sum(x, y, weights), out=out[1:])
        return out

    sups = np.max([np.abs(errors(side, ts)).max(axis=1) for side, ts in _sup_nodes(rect)], axis=0)
    return sups, _boundary_l2s(errors, rect, 1 + len(subs))


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1] as read-only (nodes, weights)."""
    return tuple(_readonly(a) for a in np.polynomial.legendre.leggauss(n))


def interior_l2(fn_on_grid: Callable[[np.ndarray, np.ndarray], np.ndarray],
                rect: Rectangle, n: int = 64) -> float:
    """Plain L2(Omega) norm via n x n tensor Gauss-Legendre quadrature.

    fn_on_grid gets np.meshgrid arrays, a tensor grid: eval_array and
    gradient_arrays cost K*2n factor evaluations and one matrix product per
    output there, not K*n^2 evaluations.
    """
    nodes, weights = _gauss_legendre(n)
    xs = nodes
    ys = rect.h * nodes
    X, Y = np.meshgrid(xs, ys)
    W = rect.h * np.outer(weights, weights)
    vals = fn_on_grid(X, Y)
    return math.sqrt(float((W * vals * vals).sum()))


def interior_sup(fn_on_grid, rect: Rectangle, nx: int = 101, ny: int = 101) -> float:
    """Sampled sup on grid_points, a tensor grid: eval_array costs K*(nx+ny)
    factor evaluations and one matrix product there, not K*nx*ny."""
    X, Y = grid_points(rect, nx, ny)
    return float(np.abs(fn_on_grid(X, Y)).max())


def dnorm_sq(approx: SteklovApproximation) -> float:
    """Quadrature value of the weighted graph norm squared of an expansion.

    The gradient part runs gradient_arrays on interior_l2's default tensor
    grid, n = 64: K*2n factor evaluations and two matrix products, not K*n^2
    evaluations.
    """
    rect = approx.rect

    def grad_sq(X, Y):
        gx, gy = approx.gradient_arrays(X, Y)
        return np.sqrt(gx * gx + gy * gy)

    grad_part = interior_l2(grad_sq, rect) ** 2
    trace_part = boundary_l2(approx.boundary_value, rect) ** 2 * rect.perimeter
    return (grad_part + trace_part) / rect.perimeter


# ---------------------------------------------------------------------------
# spectral quantities and bounds
# ---------------------------------------------------------------------------


def spectral_tail(coeffs: SteklovCoefficients, m: int) -> float:
    """sum of delta_j ghat_j^2 over modes beyond the first m nonconstant ones.

    The raw Dirichlet gradient-error integral equals perimeter times this
    value, by the boundary normalization of the modes.
    """
    return float(coeffs.spectrum.arrays.delta[1 + m:] @ coeffs.values[m:] ** 2)


def coefficient_tail(coeffs: SteklovCoefficients, m: int) -> float:
    """sum of ghat_j^2 beyond the first m nonconstant modes."""
    return float(coeffs.values[m:] @ coeffs.values[m:])


def robin_bound(coeffs: SteklovCoefficients, b: float, m: int) -> float:
    """Graph-norm error bound for the m-term Robin solve.

    (1 + d_{m+1}) / (b + d_{m+1})^2 times the spectral tail of the data,
    where d_{m+1} is the first omitted eigenvalue of the (delta-ordered)
    spectrum. The same eigenvalue convention as the solver denominators.
    """
    n = coeffs.values.size
    if m >= n:
        raise ValueError(f"spectrum holds {n} nonconstant modes; need at least {m + 1}")
    d_next = float(coeffs.spectrum.arrays.delta[m + 1])
    return (1.0 + d_next) / (b + d_next) ** 2 * coefficient_tail(coeffs, m)


def neumann_bound(coeffs: SteklovCoefficients, m: int) -> float:
    """The b = 0 form of robin_bound.

    The published statement of this bound is ambiguous about a leftover b in
    the denominator; this evaluates it at b = 0, which is the natural
    Neumann reading.
    """
    return robin_bound(coeffs, 0.0, m)


def robin_dnorm_tail_sq(coeffs: SteklovCoefficients, b: float, m: int) -> float:
    """Spectral graph-norm gap between the m-term Robin solve and the deepest
    one available in coeffs: sum of (ghat/(b+d))^2 (1+d) over omitted modes."""
    d = coeffs.spectrum.arrays.delta[1 + m:]
    return float((coeffs.values[m:] / (b + d)) ** 2 @ (1.0 + d))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    M: int
    rerr_inf: float
    rerr_2: float
    err_L2_boundary: float
    err_sup_boundary: float
    err_L2_interior: float
    err_sup_interior: float
    spectral_tail: float
    robin_bound: Optional[float] = None


def convergence_study(
    g: BoundaryFunction,
    m_values: Sequence[int],
    kind: ProblemKind = ProblemKind.dirichlet(),
    selection: str = PER_FAMILY,
    exact=None,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
    grid: tuple[int, int] = (101, 101),
    reference_m: Optional[int] = None,
) -> list[ErrorReport]:
    """One ErrorReport per truncation depth, sharing a single coefficient set.

    With an exact solution the errors are against it. Otherwise the deepest
    expansion built here is the surrogate truth; pass reference_m (40 is a
    safe default for smooth data) to make that reference deeper than
    max(m_values). For flux problems without a closed form the boundary
    error is measured against the surrogate's trace, for Dirichlet runs
    against the data. The boundary columns of every depth come from one
    sweep of the boundary (_truncation_errors).

    The bound column is the Robin graph-norm bound; for Neumann runs it is
    the same expression at b = 0, whose published statement is ambiguous
    about a leftover b (the b = 0 reading is used here).
    """
    if list(m_values) != sorted(m_values):
        raise ValueError("m_values must be increasing")
    rect = g.rect
    depth = max(m_values) if reference_m is None else max(reference_m, max(m_values))
    deep = build_spectrum(rect, depth, selection)
    coeffs = steklov_coefficients(g, deep, abstol, reltol)
    u_deep = solve(kind, g, deep, coefficients=coeffs)

    if exact is not None:
        ref_interior = zero_mean_solution(exact.value, rect, abstol, reltol) if kind.name == NEUMANN else exact.value
        ref_boundary = BoundaryFunction.from_xy(ref_interior, rect).value
    else:
        ref_boundary = g.value if kind.name == DIRICHLET else u_deep.boundary_value
        ref_interior = u_deep.eval_array

    subs = [deep.select(m) for m in m_values]
    (ref_sup, *esups), (ref_l2, *el2s) = _truncation_errors(ref_boundary, u_deep, subs)
    reports = []
    for m, sub, esup, el2 in zip(m_values, subs, esups, el2s):
        u = u_deep.restrict(sub)
        int_diff = lambda X, Y: ref_interior(X, Y) - u.eval_array(X, Y)
        n_kept = sub.size - 1
        bound = robin_bound(coeffs, kind.b, n_kept) if kind.name != DIRICHLET and n_kept < deep.size - 1 else None
        reports.append(
            ErrorReport(
                M=m,
                rerr_inf=float(esup / ref_sup) if ref_sup > 0 else float("nan"),
                rerr_2=float(el2 / ref_l2) if ref_l2 > 0 else float("nan"),
                err_L2_boundary=float(el2),
                err_sup_boundary=float(esup),
                err_L2_interior=interior_l2(int_diff, rect),
                err_sup_interior=interior_sup(int_diff, rect, *grid),
                spectral_tail=spectral_tail(coeffs, n_kept),
                robin_bound=bound,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TolProfile:
    orthonormality: float = 1e-8
    steklov_residual: float = 1e-8
    harmonicity_order: float = 1.8
    harmonicity_floor: float = 1e-7
    scaling: float = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: worst {self.worst:.3e} (tol {self.tol:.3e}) {self.detail}"


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({"passed": self.passed, "checks": [asdict(c) for c in self.checks]}, indent=2)


def _random_boundary_points(rect: Rectangle, rng: random.Random, n: int):
    pts = []
    for _ in range(n):
        side = rng.choice(SIDES)
        lo, hi = rect.side_interval(side)
        # keep strictly inside the side so corners never enter
        t = lo + (hi - lo) * (0.001 + 0.998 * rng.random())
        pts.append((side, t))
    return pts


def check_orthonormality(spec: Spectrum, tol: float) -> CheckResult:
    """Worst deviation of the boundary Gram matrix (constant mode included)
    from the identity."""
    dev = np.abs(mode_gram_matrix(spec) - np.eye(spec.size))
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    i, j = min(i, j), max(i, j)
    worst = float(dev[i, j])
    pair = f"({_mode_name(spec, i)}, {_mode_name(spec, j)})"
    return CheckResult("boundary-orthonormality", worst <= tol, worst, tol, pair)


def _mode_name(spec: Spectrum, row: int) -> str:
    """family#rank of the mode in the given row, for check details."""
    return f"{spec.family(row).value}#{spec.arrays.rank[row]}"


def check_steklov_residual(spec: Spectrum, tol: float, rng: random.Random, n_points=100) -> CheckResult:
    """Worst |dn s - delta s| / ((1 + delta) * max(peak |s|, 1)) of the
    nonconstant modes at n_points random boundary points off the corners,
    all modes at once on the kernel; peak is each mode's largest |s| there."""
    rect = spec.rectangle
    pts = _random_boundary_points(rect, rng, n_points)
    x, y = (np.array(c) for c in zip(*(rect.side_point(side, t) for side, t in pts)))
    nx, ny = (np.array(c) for c in zip(*(rect.outward_normal(side) for side, _ in pts)))
    (fx, fy), (dfx, dfy) = spec._factors(x, y, derivative=True)
    values = fx * fy
    dn = dfx * fy * nx + fx * dfy * ny
    delta = spec.arrays.delta[1:, None]
    peak = np.maximum(np.abs(values).max(axis=1, initial=0.0), 1.0)[:, None]
    worst = float((np.abs(dn - delta * values) / ((1.0 + delta) * peak)).max(initial=0.0))
    return CheckResult("steklov-residual", worst <= tol, worst, tol)


# The five-point stencils of check_harmonicity, in units of the step w: the
# center, then x+w, x-w, y+w, y-w at step w and at step w/2.
_STENCIL_X = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.5, -0.5, 0.0, 0.0])
_STENCIL_Y = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.5, -0.5])


def check_harmonicity(spec: Spectrum, min_order: float, floor: float, rng: random.Random) -> CheckResult:
    """Five-point Laplacian shrinks at second order (the modes are harmonic).

    Each nonconstant mode at a random interior point of its own, with steps
    w = min(0.02, 0.5 / max(nu, 1)) and w/2, all modes in one kernel call.
    The order is log2 of the ratio of the two Laplacians; a mode whose
    Laplacian at w/2 is at most floor * max(|s|, 1) * (1 + nu)^2 is already
    at rounding level and is skipped.
    """
    rect = spec.rectangle
    nu = spec.arrays.nu[1:]
    center = np.array([(rng.uniform(-0.6, 0.6), rng.uniform(-0.6 * rect.h, 0.6 * rect.h)) for _ in nu]).reshape(-1, 2)
    x, y = center[:, :1], center[:, 1:]
    w = np.minimum(0.02, 0.5 / np.maximum(nu, 1.0))
    v = spec._own_values(x + w[:, None] * _STENCIL_X, y + w[:, None] * _STENCIL_Y)

    def lap(first, step):
        return (v[:, first] + v[:, first + 1] + v[:, first + 2] + v[:, first + 3] - 4.0 * v[:, 0]) / (step * step)

    l1, l2 = np.abs(lap(1, w)), np.abs(lap(5, 0.5 * w))
    scale = np.maximum(np.abs(v[:, 0]), 1.0) * (1.0 + nu) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.where(l2 <= floor * scale, np.inf, np.where(l1 > 0, np.log2(l1 / l2), np.inf))
    if not order.size or order.min() == np.inf:
        return CheckResult("interior-harmonicity", True, float("inf"), min_order, "all at rounding level")
    j = int(np.argmin(order))  # a NaN order is the worst
    detail = f"{_mode_name(spec, j + 1)} at ({x[j, 0]:.3f},{y[j, 0]:.3f})"
    worst = float(order[j])
    return CheckResult("interior-harmonicity", worst >= min_order, worst, min_order, detail)


def check_delta_monotone(spec: Spectrum) -> CheckResult:
    """delta strictly increases with the family rank in every separable family."""
    a = spec.arrays
    rows = np.flatnonzero(a.code > FamilyTag.XY.order)
    rows = rows[np.lexsort((a.rank[rows], a.code[rows]))]
    gaps = np.diff(a.delta[rows])[np.diff(a.code[rows]) == 0]
    bad = gaps[~(gaps > 0)]
    return CheckResult("delta-monotone-per-family", not bad.size, float(bad.min(initial=0.0)), 0.0)


def check_scaling(spec: Spectrum, tol: float) -> CheckResult:
    """The dilated Steklov quotient of the first 12 modes.

    Dilated by L, a mode s becomes s(p / L) on the dilated rectangle, with
    eigenvalue delta / L. Its Steklov quotient, the boundary integral of
    s * dn(s) over that of s^2, is the quotient of s on the rectangle divided
    by L. The quotients are sums over the level-1 coefficient nodes of G1
    and G2, the t > 0 halves of _boundary_nodes, from the kernel's values
    and derivatives; each must equal delta / L to tol, relative. s * dn(s)
    and s^2 are even in t on every side and under the point reflection, so
    the other halves and G3 and G4 add the same sums: the quotient is that
    of the whole boundary.
    """
    head = spec.take(slice(0, 12))
    num, den = np.zeros((2, head.size - 1))
    for side, _, x, y, w in _boundary_nodes(head.rectangle, _nu_max(head), 1):
        (fx, fy), (dfx, dfy) = head._factors(x, y, derivative=True)
        values = fx * fy
        dn = dfx * fy if side is Side.G1 else fx * dfy  # the outward normal is +x on G1, +y on G2
        num += (values * dn) @ w
        den += (values * values) @ w
    delta = head.arrays.delta[1:]
    worst = 0.0
    for L in (1.0, 2.0, 0.5, 3.7):
        dilated = num / den / L
        worst = max(worst, float((np.abs(dilated - delta / L) / (delta / L)).max(initial=0.0)))
    return CheckResult("dilation-scaling", worst <= tol, worst, tol)


def check_structure(spec: Spectrum) -> CheckResult:
    """Constant first, delta nondecreasing, xy on a square of over 9 modes, no (family, nu) twice."""
    a = spec.arrays
    ok = a.code[0] == FamilyTag.CONST.order and (a.delta[1:] >= a.delta[:-1]).all()
    if spec.rectangle.is_square and spec.size > 9:
        ok = ok and (a.code == FamilyTag.XY.order).any()
    ok = bool(ok and np.unique(a.keys).size == spec.size)
    return CheckResult("spectrum-structure", ok, 0.0 if ok else 1.0, 0.0)


def invariant_suite(spec: Spectrum, tols: TolProfile = TolProfile(), seed: int = 0) -> SuiteReport:
    """Orthonormality, Steklov residual, harmonicity, monotonicity, scaling."""
    rng = random.Random(seed)
    checks = (
        check_structure(spec),
        check_orthonormality(spec, tols.orthonormality),
        check_steklov_residual(spec, tols.steklov_residual, rng),
        check_harmonicity(spec, tols.harmonicity_order, tols.harmonicity_floor, rng),
        check_delta_monotone(spec),
        check_scaling(spec, tols.scaling),
    )
    return SuiteReport(checks)
