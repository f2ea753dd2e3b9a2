"""Boundary data on the rectangle: representation, quadrature, coefficients.

A BoundaryFunction is four per-side scalar maps. No continuity across corners
is assumed; each corner value is retrievable from both adjoining sides, which
lets genuinely discontinuous data (piecewise Neumann fluxes, say) coexist
with corner-interpolation for continuous data.

All boundary inner products carry the 1/perimeter weight, so the
boundary-normalized eigenfunctions are an orthonormal family and the
coefficient of data g against mode j is ghat_j = integral(g * s_j) / |dOmega|.
Raw (unweighted) arc-length integrals are what integrate_boundary returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from . import expressions
from .geometry import Rectangle, Side, SIDES
from .spectrum import Spectrum, SteklovMode


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on some side."""

    def __init__(self, message: str, side: Side, partial_value: float, estimate: float):
        self.side = side
        self.partial_value = partial_value
        self.estimate = estimate
        super().__init__(
            f"{message} on {side.name} (partial value {partial_value:.6g}, "
            f"error estimate {estimate:.3g})"
        )


class CornerMismatchError(ValueError):
    """Two-sided corner values disagree, so bilinear reduction is undefined."""


@dataclass(frozen=True)
class BoundaryFunction:
    """Scalar data on the rectangle boundary, one map per side."""

    rect: Rectangle
    side_maps: dict[Side, object]  # Side -> callable(x, y) -> float
    name: str = ""

    @classmethod
    def from_xy(cls, fn, rect: Rectangle, name: str = "") -> "BoundaryFunction":
        """One (x, y) formula applied on all four sides."""
        return cls(rect, {side: fn for side in SIDES}, name)

    @classmethod
    def from_sides(cls, rect: Rectangle, mapping: dict, name: str = "") -> "BoundaryFunction":
        """Per-side values: each entry a constant or a callable(x, y)."""
        maps = {}
        for side in SIDES:
            try:
                entry = mapping[side]
            except KeyError:
                raise ValueError(f"missing boundary data for side {side.name}") from None
            if callable(entry):
                maps[side] = entry
            else:
                c = float(entry)
                maps[side] = lambda x, y, c=c: c
        return cls(rect, maps, name)

    @classmethod
    def from_side_polynomials(cls, rect: Rectangle, coeffs: dict, name: str = "") -> "BoundaryFunction":
        """Per-side polynomials in the side parameter (low-order first)."""

        def poly_map(side, cs):
            def fn(x, y, side=side, cs=tuple(float(c) for c in cs)):
                t = _side_parameter(rect, side, x, y)
                acc = 0.0
                for c in reversed(cs):
                    acc = acc * t + c
                return acc

            return fn

        maps = {side: poly_map(side, coeffs[side]) for side in SIDES}
        return cls(rect, maps, name)

    @classmethod
    def constant(cls, value: float, rect: Rectangle, name: str = "") -> "BoundaryFunction":
        return cls.from_xy(lambda x, y, v=float(value): v, rect, name or f"{value}")

    @classmethod
    def from_expression(cls, src: str, rect: Rectangle) -> "BoundaryFunction":
        tree = expressions.parse(src)
        return cls.from_xy(lambda x, y: expressions.evaluate(tree, x, y), rect, src)

    def value(self, side: Side, t):
        """Value at side(t); a numpy array of parameters gives an array of values."""
        x, y = self.rect.side_point(side, t)
        fn = self.side_maps[side]
        if isinstance(t, np.ndarray):
            return _map_points(fn, x, y)
        return fn(x, y)

    def value_xy(self, x: float, y: float) -> float:
        """Value at a boundary point given by coordinates (non-corner)."""
        side = self.rect.classify_boundary_point(x, y)
        return self.side_maps[side](x, y)

    def corner_values(self, corner: tuple[float, float]) -> dict[Side, float]:
        """The corner's value as seen from each adjoining side."""
        out = {}
        for side, t in self.rect.corner_params(corner).items():
            x, y = self.rect.side_point(side, t)
            out[side] = self.side_maps[side](x, y)
        return out

    def shift(self, c: float) -> "BoundaryFunction":
        maps = {
            side: (lambda x, y, fn=fn, c=c: fn(x, y) + c)
            for side, fn in self.side_maps.items()
        }
        return BoundaryFunction(self.rect, maps, f"{self.name}+{c}")

    def scale(self, c: float) -> "BoundaryFunction":
        maps = {
            side: (lambda x, y, fn=fn, c=c: c * fn(x, y))
            for side, fn in self.side_maps.items()
        }
        return BoundaryFunction(self.rect, maps, f"{c}*{self.name}")

    @staticmethod
    def linear_combination(terms, name: str = "") -> "BoundaryFunction":
        """sum of alpha_i * g_i over (alpha_i, g_i) pairs on a shared rectangle."""
        terms = list(terms)
        rect = terms[0][1].rect
        if any(g.rect != rect for _, g in terms):
            raise ValueError("all terms must share one rectangle")
        maps = {}
        for side in SIDES:
            fns = [(float(a), g.side_maps[side]) for a, g in terms]
            maps[side] = lambda x, y, fns=tuple(fns): sum(a * fn(x, y) for a, fn in fns)
        return BoundaryFunction(rect, maps, name)

    def subtract_bilinear(self, a0: float, a1: float, a2: float, a3: float) -> "BoundaryFunction":
        maps = {
            side: (
                lambda x, y, fn=fn: fn(x, y) - (a0 + a1 * x + a2 * y + a3 * x * y)
            )
            for side, fn in self.side_maps.items()
        }
        return BoundaryFunction(self.rect, maps, f"{self.name}-bilinear")


def _map_points(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fn at every point of the arrays x, y.

    A map written for floats (math functions, branches on the value) raises
    TypeError or ValueError on arrays; it is then called point by point.
    """
    try:
        out = np.asarray(fn(x, y), dtype=float)
    except (TypeError, ValueError):
        out = [fn(a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
        return np.array(out, dtype=float).reshape(x.shape)
    return out if out.shape == x.shape else np.broadcast_to(out, x.shape).copy()


def _side_parameter(rect: Rectangle, side: Side, x: float, y: float) -> float:
    if side is Side.G1:
        return y
    if side is Side.G2:
        return -x
    if side is Side.G3:
        return -y
    return x


def eval_boundary(g: BoundaryFunction, side: Side, t: float) -> float:
    """Value of g at the boundary point side(t); corners resolve per side."""
    return g.value(side, t)


def parse_expression(src: str, rect: Rectangle) -> BoundaryFunction:
    """Parse an (x, y) expression and apply it on all four sides."""
    return BoundaryFunction.from_expression(src, rect)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------


def _quad_side(fn, lo, hi, epsabs, epsrel, limit, side):
    out = quad(fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    value, estimate = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(out[3].strip().replace("\n", " "), side, value, estimate)
    return value, estimate


def integrate_boundary(
    f,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
    limit: int = 200,
    rect: Rectangle | None = None,
):
    """Raw arc-length integral of f over the boundary, plus an error estimate.

    f is a BoundaryFunction, or a callable(x, y) if rect is given. Each side
    runs through adaptive Gauss-Kronrod; after a first pass at (abstol,
    reltol), the integral is re-refined toward min(abstol, reltol*|I|) when
    the initial estimate misses that target (down to a rounding floor).
    """
    if abstol <= 0.0 or reltol <= 0.0:
        raise ValueError("tolerances must be positive")
    if not isinstance(f, BoundaryFunction):
        if rect is None:
            raise ValueError("a bare callable needs an explicit rect")
        f = BoundaryFunction.from_xy(f, rect)

    def side_integrand(side):
        fn = f.side_maps[side]
        r = f.rect
        return lambda t: fn(*r.side_point(side, t))

    total = err = 0.0
    pass1 = []
    for side in SIDES:
        lo, hi = f.rect.side_interval(side)
        v, e = _quad_side(side_integrand(side), lo, hi, abstol, reltol, limit, side)
        pass1.append((side, v, e))
        total += v
        err += e

    target = max(min(abstol, reltol * abs(total)), 1e-14 * (1.0 + abs(total)))
    if err > target:
        total2 = err2 = 0.0
        try:
            for side, _, _ in pass1:
                lo, hi = f.rect.side_interval(side)
                v, e = _quad_side(
                    side_integrand(side), lo, hi, 0.25 * target, reltol, limit, side
                )
                total2 += v
                err2 += e
        except QuadratureError:
            return total, err  # keep the successful first pass
        if err2 < err:
            return total2, err2
    return total, err


# ---------------------------------------------------------------------------
# Steklov coefficients and boundary partial sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteklovCoefficients:
    """Mean value and mode coefficients of boundary data against a spectrum."""

    spectrum: Spectrum
    gbar: float
    values: tuple[float, ...]  # aligned with spectrum.nonconstant
    estimates: tuple[float, ...]  # quadrature error estimates, gbar first
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index.update(
            {md.key: j for j, md in enumerate(self.spectrum.nonconstant)}
        )

    def coefficient(self, mode: SteklovMode) -> float:
        return self.values[self._index[mode.key]]

    def restrict(self, sub: Spectrum) -> "SteklovCoefficients":
        """Coefficients for a nested truncation of the same spectrum."""
        vals = tuple(self.values[self._index[md.key]] for md in sub.nonconstant)
        ests = (self.estimates[0],) + tuple(
            self.estimates[1 + self._index[md.key]] for md in sub.nonconstant
        )
        return SteklovCoefficients(sub, self.gbar, vals, ests)

    @property
    def weighted_norm_sq(self) -> float:
        """gbar^2 + sum ghat_j^2, the squared partial-sum norm."""
        return self.gbar * self.gbar + sum(v * v for v in self.values)


def steklov_coefficients(
    g: BoundaryFunction,
    spec: Spectrum,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
    limit: int = 200,
    threads: int = 1,
) -> SteklovCoefficients:
    """Weighted boundary inner products of g with every spectrum mode."""
    if g.rect != spec.rectangle:
        raise ValueError("boundary data and spectrum live on different rectangles")
    perim = spec.rectangle.perimeter

    def one(mode: SteklovMode | None):
        if mode is None:
            integrand = g
        else:
            maps = {
                side: (
                    lambda x, y, fn=g.side_maps[side], md=mode: fn(x, y)
                    * md._value_unchecked(x, y)
                )
                for side in SIDES
            }
            integrand = BoundaryFunction(g.rect, maps)
        try:
            raw, est = integrate_boundary(integrand, abstol, reltol, limit)
        except QuadratureError as exc:
            label = "mean value" if mode is None else f"mode {mode.family.value}, nu={mode.nu:.6g}"
            raise QuadratureError(
                f"coefficient quadrature failed for {label}: {exc}",
                exc.side,
                exc.partial_value / perim,
                exc.estimate / perim,
            ) from exc
        return raw / perim, est / perim

    jobs = [None] + list(spec.nonconstant)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(job) for job in jobs]

    gbar = results[0][0]
    values = tuple(r[0] for r in results[1:])
    estimates = tuple(r[1] for r in results)
    return SteklovCoefficients(spec, gbar, values, estimates)


def boundary_partial_sum(c: SteklovCoefficients, side: Side, t):
    """The truncated expansion gbar + sum ghat_j s_j at side(t).

    A float for a float t; an array of values for a numpy array of parameters.
    """
    x, y = c.spectrum.rectangle.side_point(side, t)
    return c.gbar + c.spectrum.expand(c.values, x, y)


# ---------------------------------------------------------------------------
# corner-bilinear reduction
# ---------------------------------------------------------------------------

CORNER_AGREEMENT_TOL = 1e-9


def corner_bilinear_reduction(g: BoundaryFunction, rect: Rectangle):
    """Split g into the bilinear interpolant of its corner values plus a rest.

    Returns (a0, a1, a2, a3, g1) with g0 = a0 + a1 x + a2 y + a3 xy matching
    g at all four corners and g1 = g - g0 vanishing there. g0 is harmonic, so
    a solve of g can be reassembled as g0 plus the expansion applied to g1.
    """
    if g.rect != rect:
        raise ValueError("boundary data lives on a different rectangle")
    h = rect.h
    vals = []
    for corner in ((1.0, h), (-1.0, h), (-1.0, -h), (1.0, -h)):
        two = list(g.corner_values(corner).values())
        spread = abs(two[0] - two[1])
        if spread > CORNER_AGREEMENT_TOL * max(1.0, abs(two[0]), abs(two[1])):
            raise CornerMismatchError(
                f"corner {corner}: adjoining sides give {two[0]:.12g} and "
                f"{two[1]:.12g}; reduction undefined for corner-discontinuous data"
            )
        vals.append(0.5 * (two[0] + two[1]))

    gpp, gmp, gmm, gpm = vals  # corners (1,h), (-1,h), (-1,-h), (1,-h)
    a0 = 0.25 * (gpp + gmp + gmm + gpm)
    a1 = 0.25 * (gpp - gmp - gmm + gpm)
    a2 = 0.25 * (gpp + gmp - gmm - gpm) / h
    a3 = 0.25 * (gpp - gmp + gmm - gpm) / h
    return a0, a1, a2, a3, g.subtract_bilinear(a0, a1, a2, a3)
