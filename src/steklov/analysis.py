"""Error norms, the truncation sweep, theoretical bounds, and invariant checks.

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
from typing import Callable, Sequence

import numpy as np

from .boundary import (
    SteklovCoefficients,
    _REFLECTED,
    _boundary_nodes,
    _integrate_panels,
    _nu_max,
    _parities,
    _readonly,
    mode_gram_matrix,
)
from .geometry import Rectangle, Side, SIDES
from .solvers import SteklovApproximation, grid_points
from .spectrum import FamilyTag, Spectrum


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

_L2_ABSTOL, _L2_RELTOL = 1e-12, 1e-9  # boundary_l2's targets for the integral of fn^2
_GAUSS_POINTS = 64  # per axis of interior_l2's tensor Gauss-Legendre rule
_SUP_GRID = 101  # grid_points per axis of interior_sup


def boundary_l2(fn: Callable[[Side, np.ndarray], np.ndarray], rect: Rectangle) -> float:
    """Weighted boundary L2 norm of a (side, t) map, by panel-adaptive quadrature.

    fn is called with numpy arrays of side parameters and returns the values
    there, as for boundary_sup; the integral of fn^2, over the bisected K49
    panels of boundary._integrate_panels, meets max(1e-12, 1e-9 * |I|).
    """
    return float(_boundary_l2s(fn, rect, 1)[0])


def _boundary_l2s(fn, rect: Rectangle, entries: int) -> np.ndarray:
    """boundary_l2 of each of the `entries` rows of fn's (entries, n) values."""
    sq, _ = _integrate_panels(rect, lambda side, t: fn(side, t) ** 2, _L2_ABSTOL, _L2_RELTOL, 250, entries=entries)
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


def _truncation_errors(pairs: Sequence[tuple[Callable[[Side, np.ndarray], np.ndarray], SteklovApproximation]],
                       subs: Sequence[Spectrum]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(sup, L2) per (ref, u) pair: the boundary_sup and boundary_l2 of ref,
    then of ref - u|sub for every sub, from one sweep of the boundary for
    all pairs.

    Every u is an expansion over one base spectrum, and each sub a
    sub-spectrum of it: u|sub is u.restrict(sub), the weight row u.weights
    masked to sub's modes with u's constant term and lift. Both arrays of a
    pair hold 1 + len(subs) entries. The sup is sampled on boundary_sup's
    nodes, and the L2 norms of all pairs share one panel-adaptive quadrature
    with boundary_l2's tolerances, whose panels are refined wherever any
    entry misses its target: an entry's panels can only be finer than in a
    sweep of its own. Expansions over different base spectra raise ValueError.

    The modes are evaluated once per node block for all pairs and subs, and
    on G1 and G2 only. Each pair takes its own product with a block, of its
    len(subs) weight rows, so that its sums are those of a sweep of its own:
    BLAS may round a product of more rows otherwise. G3 and G4 are the
    point reflections of G1 and G2 at the same parameters, where mode j
    takes the sign sigma_j (boundary._parities): a block on G1 or G2 also
    gives the sums on its reflected side, (weights * sigma) @ S, as a
    product of its own, with the same sums as an evaluation there. They are
    used when that side is next called at the same parameters, which holds
    for the sup nodes and for L2 panels that were split alike; otherwise the
    side is evaluated as it is.
    The sup nodes are taken in the order G1, G3, G2, G4, so their mirrored
    sums are used at once: held while G2 was evaluated, they grew the heap
    past malloc's top pad, about 30 page faults per side in some processes.
    """
    base = pairs[0][1].spectrum
    if any(u.spectrum is not base for _, u in pairs):
        raise ValueError("the expansions of one truncation sweep must share one base spectrum")
    rect = base.rectangle
    masks = np.zeros((len(subs), base.size - 1))
    for mask, sub in zip(masks, subs):
        mask[base.rows_of(sub)[1:] - 1] = 1.0
    weights = np.array([u.weights * masks for _, u in pairs])  # (pairs, subs, K)
    reflected_weights = weights * _parities(base)[1][1:]
    reflected = {side: [] for side in _REFLECTED.values()}  # G3, G4: (t, mirrored sums) of each G1, G2 call

    def mode_sums(side, t, x, y, sums):
        """Each pair's weights @ S at side(t) into sums, (pairs, subs, n), in
        the blocks of Spectrum.expand: the sums of an expand per pair."""
        queue = reflected.get(side)
        if queue and np.array_equal(queue[0][0], t):
            sums[...] = queue.pop(0)[1]
            return
        if queue is not None:
            queue.clear()  # split otherwise than its reflected side
        mirrored = np.empty_like(sums) if side in _REFLECTED else None
        for block, s in base._value_blocks(x, y):
            for pair in range(len(pairs)):
                sums[pair, :, block] = weights[pair] @ s
                if mirrored is not None:
                    mirrored[pair, :, block] = reflected_weights[pair] @ s
        if mirrored is not None:
            reflected[_REFLECTED[side]].append((t, mirrored))

    def errors(side, t):
        out = np.empty((len(pairs), 1 + len(subs), t.size))
        x, y = rect.side_point(side, t)
        # the side's fixed coordinate as one value: its factors are evaluated once
        x, y = (x[:1], y) if side.is_vertical else (x, y[:1])
        mode_sums(side, t, x, y, out[:, 1:])
        for (ref, u), rows in zip(pairs, out):
            rows[0] = ref(side, t)
            np.subtract(rows[0], u._constant_and_lift(x, y) + rows[1:], out=rows[1:])
        return out.reshape(-1, t.size)

    sup_nodes = dict(_sup_nodes(rect))
    sides = [on for side in _REFLECTED for on in (side, _REFLECTED[side])]
    sups = np.max([np.abs(errors(side, sup_nodes[side])).max(axis=1) for side in sides], axis=0)
    l2s = _boundary_l2s(errors, rect, sups.size)
    return list(zip(sups.reshape(len(pairs), -1), l2s.reshape(len(pairs), -1)))


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1] as read-only (nodes, weights)."""
    return tuple(_readonly(a) for a in np.polynomial.legendre.leggauss(n))


def interior_l2(fn_on_grid: Callable[[np.ndarray, np.ndarray], np.ndarray], rect: Rectangle) -> float:
    """Plain L2(Omega) norm via 64 x 64 tensor Gauss-Legendre quadrature.

    fn_on_grid gets np.meshgrid arrays, a tensor grid: eval_array and
    gradient_arrays cost K*128 factor evaluations and one matrix product per
    output there, not K*64^2 evaluations.
    """
    nodes, weights = _gauss_legendre(_GAUSS_POINTS)
    xs = nodes
    ys = rect.h * nodes
    X, Y = np.meshgrid(xs, ys)
    W = rect.h * np.outer(weights, weights)
    vals = fn_on_grid(X, Y)
    return math.sqrt(float((W * vals * vals).sum()))


def interior_sup(fn_on_grid, rect: Rectangle) -> float:
    """Sampled sup on the 101 x 101 grid_points, a tensor grid: eval_array
    costs K*202 factor evaluations and one matrix product there, not K*101^2."""
    X, Y = grid_points(rect, _SUP_GRID, _SUP_GRID)
    return float(np.abs(fn_on_grid(X, Y)).max())


def dnorm_sq(approx: SteklovApproximation) -> float:
    """Quadrature value of the weighted graph norm squared of an expansion.

    The gradient part runs gradient_arrays on interior_l2's 64 x 64 tensor
    grid: K*128 factor evaluations and two matrix products, not K*64^2
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
    b = 0 gives the Neumann bound: the published statement of that bound is
    ambiguous about a leftover b in the denominator, and b = 0 is the natural
    Neumann reading.
    """
    n = coeffs.values.size
    if m >= n:
        raise ValueError(f"spectrum holds {n} nonconstant modes; need at least {m + 1}")
    d_next = float(coeffs.spectrum.arrays.delta[m + 1])
    return (1.0 + d_next) / (b + d_next) ** 2 * coefficient_tail(coeffs, m)


def robin_dnorm_tail_sq(coeffs: SteklovCoefficients, b: float, m: int) -> float:
    """Spectral graph-norm gap between the m-term Robin solve and the deepest
    one available in coeffs: sum of (ghat/(b+d))^2 (1+d) over omitted modes."""
    d = coeffs.spectrum.arrays.delta[1 + m:]
    return float((coeffs.values[m:] / (b + d)) ** 2 @ (1.0 + d))


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------


# invariant_suite's tolerances
ORTHONORMALITY_TOL = 1e-8
STEKLOV_RESIDUAL_TOL = 1e-8
HARMONICITY_ORDER = 1.8
HARMONICITY_FLOOR = 1e-7
SCALING_TOL = 1e-12
_RESIDUAL_POINTS = 100  # random boundary points of check_steklov_residual


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


def check_steklov_residual(spec: Spectrum, tol: float, rng: random.Random) -> CheckResult:
    """Worst |dn s - delta s| / ((1 + delta) * max(peak |s|, 1)) of the
    nonconstant modes at 100 random boundary points off the corners, all
    modes at once on the kernel; peak is each mode's largest |s| there."""
    rect = spec.rectangle
    pts = _random_boundary_points(rect, rng, _RESIDUAL_POINTS)
    x, y = (np.array(c) for c in zip(*(rect.side_point(side, t) for side, t in pts)))
    nx, ny = (np.array(c) for c in zip(*(rect.outward_normal(side) for side, _ in pts)))
    values, gx, gy = spec.values(x, y, derivative=True)
    dn = gx * nx + gy * ny
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
    """The Steklov quotient of each of the first 12 modes against its delta.

    The quotient, the boundary integral of s * dn(s) over that of s^2, must
    equal delta to tol, relative. Dilated by L, a mode s becomes s(p / L) on
    the dilated rectangle, with eigenvalue delta / L and quotient that of s
    divided by L: both sides of the comparison scale alike, so their relative
    difference is the same at every L, and the one comparison on the
    rectangle itself checks every dilation without evaluating one. The
    quotients are sums under the Kronrod weights of the node set for
    products of two traces (top frequency 2 * nu_max), the t > 0 halves of
    G1 and G2 of _boundary_nodes, from the kernel's values and derivatives.
    s * dn(s) and s^2 are even in t on every side and under the point
    reflection, so the other halves and G3 and G4 add the same sums: the
    quotient is that of the whole boundary.
    """
    head = spec.take(slice(0, 12))
    num, den = np.zeros((2, head.size - 1))
    for side, _, x, y, _, w in _boundary_nodes(head.rectangle, 2.0 * _nu_max(head)):
        values, gx, gy = head.values(x, y, derivative=True)
        dn = gx if side is Side.G1 else gy  # the outward normal is +x on G1, +y on G2
        num += (values * dn) @ w
        den += (values * values) @ w
    delta = head.arrays.delta[1:]
    worst = float((np.abs(num / den - delta) / delta).max(initial=0.0))
    return CheckResult("dilation-scaling", worst <= tol, worst, tol)


def check_structure(spec: Spectrum) -> CheckResult:
    """Constant first, delta nondecreasing, xy on a square of over 9 modes, no (family, nu) twice."""
    a = spec.arrays
    ok = a.code[0] == FamilyTag.CONST.order and (a.delta[1:] >= a.delta[:-1]).all()
    if spec.rectangle.is_square and spec.size > 9:
        ok = ok and (a.code == FamilyTag.XY.order).any()
    ok = bool(ok and np.unique(a.keys).size == spec.size)
    return CheckResult("spectrum-structure", ok, 0.0 if ok else 1.0, 0.0)


def invariant_suite(spec: Spectrum, seed: int = 0) -> SuiteReport:
    """Orthonormality, Steklov residual, harmonicity, monotonicity, scaling,
    at the tolerances above; seed draws the random points."""
    rng = random.Random(seed)
    checks = (
        check_structure(spec),
        check_orthonormality(spec, ORTHONORMALITY_TOL),
        check_steklov_residual(spec, STEKLOV_RESIDUAL_TOL, rng),
        check_harmonicity(spec, HARMONICITY_ORDER, HARMONICITY_FLOOR, rng),
        check_delta_monotone(spec),
        check_scaling(spec, SCALING_TOL),
    )
    return SuiteReport(checks)
