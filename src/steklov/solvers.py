"""Expansion solvers for Dirichlet, Robin, and Neumann Laplace problems.

A solution is a finite combination constant + sum of weighted modes, with the
weights determined by the problem kind from the boundary coefficients:

    Dirichlet:  w_j = ghat_j            constant term gbar
    Robin(b):   w_j = ghat_j/(b+d_j)    constant term gbar/b
    Neumann:    w_j = ghat_j/d_j        constant term 0, requires gbar ~ 0

d_j is the eigenvalue in the rectangle convention D_nu s = d s on the
boundary, which is the convention under which boundary data equal to
(b + d_k) * s_k yields exactly u = s_k. The Dirichlet solve can subtract the
corner-interpolating bilinear a0 + a1 x + a2 y + a3 xy first (it is harmonic)
and carry it as an explicit lift, which improves convergence of the rest.

`solve(kind, g, spec, ...)` is the one implementation of these rules, and
refuses an option of another kind; solve_dirichlet, solve_robin and
solve_neumann are calls of it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .boundary import (
    BoundaryFunction,
    SteklovCoefficients,
    _readonly,
    corner_bilinear_reduction,
    integrate_boundary,
    steklov_coefficients,
)
from .geometry import Rectangle, Side
from .spectrum import Spectrum


class IncompatibleDataError(ValueError):
    """Neumann data with a boundary mean too large to be solvable."""

    def __init__(self, gbar: float, tol: float):
        self.gbar = gbar
        self.tol = tol
        super().__init__(
            f"Neumann data must have zero boundary mean: |gbar| = {abs(gbar):.3g} "
            f"exceeds the tolerance {tol:.3g}"
        )


class BoundaryGradientWarning(UserWarning):
    """Gradient requested on the boundary, where it is one-sided."""


DIRICHLET = "dirichlet"
ROBIN = "robin"
NEUMANN = "neumann"


@dataclass(frozen=True)
class ProblemKind:
    name: str  # 'dirichlet' | 'robin' | 'neumann'
    b: float = 0.0

    def __post_init__(self):
        if self.name not in (DIRICHLET, ROBIN, NEUMANN):
            raise ValueError(f"unknown problem kind {self.name!r}")
        if self.name == ROBIN and not self.b > 0.0:
            raise ValueError(f"Robin problems need b > 0, got b = {self.b}")
        if self.name != ROBIN and self.b != 0.0:
            raise ValueError(f"{self.name} does not take a Robin constant")

    @classmethod
    def dirichlet(cls) -> "ProblemKind":
        return cls(DIRICHLET)

    @classmethod
    def robin(cls, b: float) -> "ProblemKind":
        return cls(ROBIN, float(b))

    @classmethod
    def neumann(cls) -> "ProblemKind":
        return cls(NEUMANN)


@dataclass(frozen=True, eq=False)
class SteklovApproximation:
    """Evaluable truncated expansion solution on the closed rectangle.

    Every evaluator is _expansion: constant + lift + sum_j w_j s_j, or its
    gradient, over the modes of _terms only: those whose weight is not
    exactly 0.0. Data with a parity symmetry zero whole parity classes of
    weights, so these modes are never evaluated; with no zero weight the sum
    runs over spectrum and weights themselves.
    """

    kind: ProblemKind
    spectrum: Spectrum
    coefficients: SteklovCoefficients
    weights: np.ndarray  # read-only, aligned with coefficients.values
    constant_term: float
    lift: Optional[tuple[float, float, float, float]] = None  # bilinear a0..a3

    @property
    def rect(self) -> Rectangle:
        return self.spectrum.rectangle

    @cached_property
    def _terms(self) -> tuple[Spectrum, np.ndarray]:
        """(spectrum, weights) restricted to the modes whose weight is not
        exactly 0.0 (a NaN weight is kept): the sub-spectrum of those rows,
        the constant first, and their weights as a float array. Without a
        zero weight, this approximation's own spectrum and weights."""
        w = np.asarray(self.weights, dtype=float)
        rows = np.flatnonzero(w != 0.0)
        if rows.size == w.size:
            return self.spectrum, w
        return self.spectrum.take(np.concatenate(([0], rows + 1))), w[rows]

    def _constant_and_lift(self, x, y, derivative: bool = False):
        """The constant term plus the bilinear lift at points that broadcast;
        with derivative, the lift's gradient, or None without a lift."""
        if self.lift is None:  # + 0.0, the sum with a zero lift, turns a constant of -0.0 into 0.0
            return None if derivative else self.constant_term + 0.0
        a0, a1, a2, a3 = self.lift
        if derivative:
            return a1 + a3 * y, a2 + a3 * x
        return self.constant_term + (a0 + a1 * x + a2 * y + a3 * x * y)

    def _expansion(self, x, y, grid: bool = False, derivative: bool = False):
        """constant + lift + sum_j w_j s_j, or with derivative its gradient,
        at points that broadcast (Spectrum.expand; a float at one point) or,
        with grid, on the tensor grid of the axes x and y, shape (ny, nx)
        (Spectrum.expand_grid), adding the constant and the lift in place."""
        spec, w = self._terms
        if grid:
            out = spec.expand_grid(w, x, y, derivative)
            y = y[:, None]
        else:
            out = spec.expand(w, x, y, derivative)
        base = self._constant_and_lift(x, y, derivative)
        if not derivative:
            out += base
            return out
        gx, gy = out
        if base is not None:
            gx += base[0]
            gy += base[1]
        return gx, gy

    def eval(self, x: float, y: float) -> float:
        """Value at a point of the closed rectangle."""
        self.rect.require_inside(x, y)
        return self._expansion(x, y)

    def eval_gradient(self, x: float, y: float) -> tuple[float, float]:
        """Term-by-term gradient; one-sided (and flagged) on the boundary."""
        self.rect.require_inside(x, y)
        if abs(x) == 1.0 or abs(y) == self.rect.h:
            warnings.warn(
                "gradient evaluated on the boundary is only one-sided",
                BoundaryGradientWarning,
                stacklevel=2,
            )
        return self._expansion(x, y, derivative=True)

    def eval_grid(self, nx: int, ny: int) -> np.ndarray:
        """Values on the closed tensor grid of grid_points, shape (ny, nx), x varying fastest."""
        _require_grid(nx, ny)
        return self._expansion(*_grid_axes(self.rect, nx, ny), grid=True)

    def eval_array(self, x, y) -> np.ndarray:
        """Vectorized values at arbitrary points of the closed rectangle (x, y broadcast).

        On a tensor grid (_array_points) one matrix product of its axes' factors.
        """
        return self._expansion(*_array_points(self.rect, x, y))

    def gradient_arrays(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized gradient components at points of the closed rectangle that broadcast.

        On a tensor grid (_array_points) two matrix products of its axes' factors.
        """
        return self._expansion(*_array_points(self.rect, x, y), derivative=True)

    def boundary_value(self, side: Side, t):
        """Trace of the approximation at side(t); an array for an array of parameters."""
        return self._expansion(*self.rect.side_point(side, t))

    def boundary_normal_derivative(self, side: Side, t):
        """Outward normal derivative at side(t); an array for an array of parameters."""
        gx, gy = self._expansion(*self.rect.side_point(side, t), derivative=True)
        nx, ny = self.rect.outward_normal(side)
        return gx * nx + gy * ny

    def restrict(self, sub: Spectrum) -> "SteklovApproximation":
        """The same solve truncated to a nested sub-spectrum."""
        return _approximation(self.kind, sub, self.coefficients.restrict(sub), self.constant_term, self.lift)


def _approximation(kind: ProblemKind, spec: Spectrum, coeffs: SteklovCoefficients, constant: float, lift=None):
    """The expansion of kind over spec. Its weights are ghat_j / (b + d_j),
    b = 0 for Neumann, and for Dirichlet the coefficients themselves.

    The coefficients must belong to spec: the same rectangle and the same
    modes, (family, nu), row by row; ValueError otherwise.
    """
    other = coeffs.spectrum
    if other is not spec and (
        other.rectangle != spec.rectangle or not np.array_equal(other.arrays.keys, spec.arrays.keys)
    ):
        raise ValueError(
            f"the coefficients belong to another spectrum ({other.size - 1} modes at h = {other.rectangle.h}) "
            f"than the one solved over ({spec.size - 1} modes at h = {spec.rectangle.h}); "
            "use coefficients.restrict(spec) for a sub-spectrum"
        )
    weights = coeffs.values
    if kind.name != DIRICHLET:
        weights = _readonly(weights / (kind.b + coeffs.spectrum.arrays.delta[1:]))
    return SteklovApproximation(kind, spec, coeffs, weights, constant, lift)


def solve(
    kind: ProblemKind,
    g: BoundaryFunction,
    spec: Spectrum,
    coefficients: Optional[SteklovCoefficients] = None,
    use_corner_reduction: bool = False,
    mean_tol: Optional[float] = None,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
) -> SteklovApproximation:
    """The expansion solution of the problem kind with data g, truncated to spec.

    use_corner_reduction is Dirichlet-only (it recomputes the coefficients of
    the reduced data); mean_tol, the Neumann compatibility tolerance, defaults
    to neumann_mean_tolerance(g). An option of another kind is a ValueError.
    """
    if use_corner_reduction and kind.name != DIRICHLET:
        raise ValueError(f"the corner reduction applies to Dirichlet problems, not {kind.name}")
    if mean_tol is not None and kind.name != NEUMANN:
        raise ValueError(f"mean_tol applies to Neumann problems, not {kind.name}")
    lift = None
    if use_corner_reduction:
        a0, a1, a2, a3, g = corner_bilinear_reduction(g, spec.rectangle)
        lift = (a0, a1, a2, a3)
        coefficients = None  # coefficients of the reduced data are required
    if coefficients is None:
        coefficients = steklov_coefficients(g, spec, abstol, reltol)
    if kind.name == NEUMANN:
        mean_tol = neumann_mean_tolerance(g) if mean_tol is None else mean_tol
        if abs(coefficients.gbar) > mean_tol:
            raise IncompatibleDataError(coefficients.gbar, mean_tol)
        constant = 0.0
    else:
        constant = coefficients.gbar / kind.b if kind.name == ROBIN else coefficients.gbar
    return _approximation(kind, spec, coefficients, constant, lift)


# solve_dirichlet, solve_robin and solve_neumann are kept: the benchmark's workloads call them.
def solve_dirichlet(
    g: BoundaryFunction,
    spec: Spectrum,
    use_corner_reduction: bool = False,
    coefficients: Optional[SteklovCoefficients] = None,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
) -> SteklovApproximation:
    """Harmonic extension of g, truncated to the given spectrum."""
    return solve(ProblemKind.dirichlet(), g, spec, coefficients, use_corner_reduction, abstol=abstol, reltol=reltol)


def solve_robin(
    g: BoundaryFunction,
    b: float,
    spec: Spectrum,
    coefficients: Optional[SteklovCoefficients] = None,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
) -> SteklovApproximation:
    """Galerkin solution of D_nu u + b u = g over the spectrum's modes."""
    return solve(ProblemKind.robin(b), g, spec, coefficients, abstol=abstol, reltol=reltol)


# The Neumann compatibility tolerance relative to the boundary L2 norm of g.
_NEUMANN_MEAN_RELTOL = 1e-8


def neumann_mean_tolerance(g: BoundaryFunction) -> float:
    """Default compatibility tolerance: _NEUMANN_MEAN_RELTOL times the boundary L2 norm of g."""
    sq, _ = integrate_boundary(
        BoundaryFunction(g.rect, {s: (lambda x, y, fn=fn: fn(x, y) ** 2) for s, fn in g.side_maps.items()})
    )
    return _NEUMANN_MEAN_RELTOL * math.sqrt(max(sq, 0.0) / g.rect.perimeter)


def solve_neumann(
    g: BoundaryFunction,
    spec: Spectrum,
    mean_tol: Optional[float] = None,
    coefficients: Optional[SteklovCoefficients] = None,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
) -> SteklovApproximation:
    """Minimum-norm solution of D_nu u = g; data must have zero boundary mean."""
    return solve(ProblemKind.neumann(), g, spec, coefficients, mean_tol=mean_tol, abstol=abstol, reltol=reltol)


def _require_grid(nx: int, ny: int) -> None:
    """ValueError unless a grid of nx by ny points has at least 2 per axis."""
    if nx < 2 or ny < 2:
        raise ValueError("grids need at least 2 points per axis")


def _grid_axes(rect: Rectangle, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(-1.0, 1.0, nx), np.linspace(-rect.h, rect.h, ny)


def _array_points(rect: Rectangle, x, y):
    """(xs, ys, True) when the arrays x and y broadcast to the tensor grid
    np.meshgrid(xs, ys), else (x, y, False): the arguments of _expansion.
    GeometryError for a point outside the closed rectangle.

    That is: 2-D and nonempty after broadcasting, x constant down every
    column and y constant along every row, as grid_points gives. An
    indexing="ij" grid, or a grid with one point moved, is not one.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    rect.require_inside(x, y)
    if max(x.ndim, y.ndim) == 2:
        X, Y = np.broadcast_arrays(x, y)
        if X.size and (X == X[:1]).all() and (Y == Y[:, :1]).all():
            return X[0], Y[:, 0], True
    return x, y, False


def grid_points(rect: Rectangle, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor grid underlying eval_grid, as meshgrid arrays (ny, nx)."""
    return np.meshgrid(*_grid_axes(rect, nx, ny))
