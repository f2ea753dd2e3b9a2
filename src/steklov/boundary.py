"""Boundary data on the rectangle: representation, quadrature, coefficients.

A BoundaryFunction is four per-side scalar maps. No continuity across corners
is assumed; each corner value is retrievable from both adjoining sides, which
lets genuinely discontinuous data (piecewise Neumann fluxes, say) coexist
with corner-interpolation for continuous data.

All boundary inner products carry the 1/perimeter weight, so the
boundary-normalized eigenfunctions are an orthonormal family and the
coefficient of data g against mode j is ghat_j = integral(g * s_j) / |dOmega|.
Raw (unweighted) arc-length integrals are what integrate_boundary returns.

Coefficients come from one fixed node set per (rectangle, nu_max), where
nu_max is the largest frequency of the spectrum. Each side is cut into
composite Gauss-Legendre panels of _PANEL_POINTS nodes, no wider than
_PANEL_WIDTH / nu_max, and graded geometrically toward both corners (ratio
_GRADING, smallest corner panel _CORNER_PANEL of the panel width), where the
O(1/nu) layers of cosh(nu x) sit. Every mode trace is analytic on each side,
so these panels converge geometrically. Level 1 is level 0 with every panel
halved. All integrals are S @ (w * g) at both levels, with S the (K, N)
matrix of Spectrum.values evaluated _BLOCK nodes at a time, and g evaluated
once per node. An entry's error estimate is |I1 - I0|, its value I1.

S is evaluated on a quarter of the boundary, the t > 0 halves of G1 and G2.
The panels of a side are symmetric about t = 0 and _PANEL_POINTS is even,
so the side's nodes are those t and their mirror images -t; G3 and G4 are
the point reflections of G1 and G2 at the same parameters. Along each side
every mode is even or odd in t (its factor along the side is cos or cosh,
or sin, sinh or linear), and it is even or odd under p -> -p. So the data
enter folded, w * (g(t) + g(-t)) and w * (g(t) - g(-t)) on a side and on
its reflected side, and each mode takes the even or the odd pair of its
sums. The orthonormality Gram matrix of a spectrum (mode_gram_matrix) uses
the level-1 nodes and the same symmetry: modes of different parity classes
are orthogonal, and each class block is 4 times its sum over these nodes.

Every other boundary integral is one panel-adaptive rule on arrays of nodes
(_integrate_panels): integrate_boundary, analysis.boundary_l2, and the
fallback that recomputes, in one call, every coefficient whose estimate
misses max(abstol, reltol * |I1|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions
from .geometry import Rectangle, Side, SIDES
from .spectrum import _ODD_ALONG, Spectrum


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on some side; entry numbers the integrand."""

    def __init__(self, message: str, side: Side, partial_value: float, estimate: float, entry: int = 0):
        self.side = side
        self.partial_value = partial_value
        self.estimate = estimate
        self.entry = entry
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

    The builtin data and expression data take arrays. A foreign map written
    for floats (math functions, branches on the value) raises TypeError or
    ValueError on arrays; it is then called point by point. An error that
    expression data raised from their own point-by-point pass is raised as
    it is: the points would only raise it again.
    """
    try:
        out = np.asarray(fn(x, y), dtype=float)
    except (TypeError, ValueError) as exc:
        if expressions.raised_pointwise(exc):
            raise
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


# ---------------------------------------------------------------------------
# panel-adaptive quadrature
# ---------------------------------------------------------------------------


def _panel_sums(fn, side_of: np.ndarray, a: np.ndarray, b: np.ndarray, pieces: int, entries: int) -> np.ndarray:
    """(P, pieces, m): Gauss-Legendre sums of fn over `pieces` equal parts of
    each panel [a, b] on SIDES[side_of]. fn is called per side, on at most
    _ENTRIES // entries nodes (but at least one panel) at a time."""
    out = None
    per_call = max(1, _ENTRIES // (entries * pieces * _PANEL_POINTS))
    for k in np.unique(side_of):
        on_side = np.flatnonzero(side_of == k)
        for on in (on_side[i:i + per_call] for i in range(0, on_side.size, per_call)):
            step = ((b[on] - a[on]) / pieces)[:, None, None]
            t = (a[on, None, None] + step * (np.arange(pieces)[:, None] + 0.5 * (_GL_NODES + 1.0))).ravel()
            v = np.asarray(fn(SIDES[k], t), dtype=float)
            v = np.broadcast_to(v, v.shape[:-1] + t.shape).reshape(-1, on.size, pieces, _PANEL_POINTS)
            if out is None:
                out = np.empty((side_of.size, pieces, v.shape[0]))
            out[on] = np.moveaxis(v @ _GL_WEIGHTS, 0, -1) * (0.5 * step)
    return out


def _integrate_panels(rect: Rectangle, fn, abstol: float, reltol: float, limit: int,
                      nu_max: float = 0.0, entries: int = 1):
    """(I, estimate): raw arc-length integrals of fn over the boundary, shape (m,).

    fn(side, t) maps an array of n side parameters to n values, or to (m, n)
    values of m = entries integrands. Each side starts from _panel_breaks(nu_max)
    (nu_max 0: no frequency known). A panel's value is the sum over its two
    halves, its estimate |halves - whole|; every panel that misses its length
    share of max(abstol, reltol * |I|) for some integrand is bisected, until
    none does. Once bisection would add more than `limit` panels to a side,
    QuadratureError reports the integrand furthest from its target; a NaN
    never meets its target.
    """
    breaks = [lo + _panel_breaks(hi - lo, nu_max) for lo, hi in map(rect.side_interval, SIDES)]
    side_of = np.repeat(np.arange(len(SIDES)), [br.size - 1 for br in breaks])
    a, b = np.concatenate([br[:-1] for br in breaks]), np.concatenate([br[1:] for br in breaks])
    whole = _panel_sums(fn, side_of, a, b, 1, entries)[:, 0]
    halves = np.empty((0, 2, whole.shape[1]))  # sums over the two halves of each panel
    added = np.zeros(len(SIDES), dtype=int)
    while True:
        fresh = slice(len(halves), None)
        halves = np.concatenate((halves, _panel_sums(fn, side_of[fresh], a[fresh], b[fresh], 2, entries)))
        value = halves.sum(axis=1)
        est = np.abs(value - whole)
        target = np.maximum(abstol, reltol * np.abs(value.sum(axis=0)))
        miss = ~(est <= (b - a)[:, None] / rect.perimeter * target).all(axis=1)
        if not miss.any():
            return value.sum(axis=0), est.sum(axis=0)
        added += np.bincount(side_of[miss], minlength=len(SIDES))
        if (added > limit).any():
            k = int(np.argmax(added > limit))
            on = side_of == k
            side_est = est[on].sum(axis=0)
            entry = int(np.argmax(side_est / target))
            raise QuadratureError(f"no convergence within {limit} panel bisections", SIDES[k],
                                  float(value[on, entry].sum()), float(side_est[entry]), entry)
        # a missed panel becomes its two halves, whose whole sums are known
        keep, mid = ~miss, a[miss] + (b[miss] - a[miss]) / 2  # the split point of _panel_sums
        side_of = np.concatenate((side_of[keep], side_of[miss], side_of[miss]))
        a, b = np.concatenate((a[keep], a[miss], mid)), np.concatenate((b[keep], mid, b[miss]))
        whole = np.concatenate((whole[keep], halves[miss, 0], halves[miss, 1]))
        halves = halves[keep]


def integrate_boundary(f: BoundaryFunction, abstol: float = 1e-10, reltol: float = 1e-6, limit: int = 200):
    """Raw arc-length integral of the BoundaryFunction f and an error estimate.

    The panel-adaptive rule of _integrate_panels: the estimate meets
    max(abstol, reltol * |I|), or QuadratureError after `limit` bisections of a side.
    """
    if abstol <= 0.0 or reltol <= 0.0:
        raise ValueError("tolerances must be positive")
    value, estimate = _integrate_panels(f.rect, f.value, abstol, reltol, limit)
    return float(value[0]), float(estimate[0])


# ---------------------------------------------------------------------------
# Steklov coefficients and boundary partial sums
# ---------------------------------------------------------------------------


def _readonly(a: np.ndarray) -> np.ndarray:
    """a, made read-only: per-mode results are shared (Dirichlet weights are the coefficients)."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SteklovCoefficients:
    """Mean value and mode coefficients of boundary data against a spectrum.

    Read-only float64 arrays: values[j] belongs to spectrum row j + 1, estimates[j] to row j.
    """

    spectrum: Spectrum
    gbar: float
    values: np.ndarray
    estimates: np.ndarray  # quadrature error estimates, gbar first

    def restrict(self, sub: Spectrum) -> "SteklovCoefficients":
        """Coefficients for a sub-spectrum whose modes are all modes of this one.

        Each mode of sub is found by its (family, nu); a mode that is not
        here raises ValueError.
        """
        rows = self.spectrum.rows_of(sub)
        values, estimates = self.values[rows[1:] - 1], self.estimates[rows]
        return SteklovCoefficients(sub, self.gbar, _readonly(values), _readonly(estimates))

    # No package caller yet: the planned Parseval error certificate reads it.
    @property
    def weighted_norm_sq(self) -> float:
        """gbar^2 + sum ghat_j^2, the squared partial-sum norm."""
        return self.gbar * self.gbar + float(self.values @ self.values)


# Fixed-node quadrature. A panel is at most _PANEL_WIDTH / nu_max wide, so
# the product of two mode traces turns through at most 2 * _PANEL_WIDTH
# radians (or e-folds) across it, which _PANEL_POINTS Gauss-Legendre nodes
# integrate to rounding.
_PANEL_POINTS = 24
_PANEL_WIDTH = 16.0
_GRADING = 4.0
_CORNER_PANEL = 1e-3
_BLOCK = 64  # nodes per block of S: S never exists as a whole (K, N) matrix
_ENTRIES = 2**16  # integrand values per call of a panel-adaptive integrand

# Corner breakpoints as fractions of the panel width: 1e-3, 4e-3, ..., 0.256.
_CORNER_BREAKS = _CORNER_PANEL * _GRADING ** np.arange(
    math.ceil(math.log(1.0 / _CORNER_PANEL) / math.log(_GRADING))
)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_POINTS)


def _panel_breaks(length: float, nu_max: float) -> np.ndarray:
    """Panel breakpoints on [0, length]: equal panels no wider than
    _PANEL_WIDTH / nu_max in the middle (half the length for nu_max 0),
    graded geometrically toward both ends."""
    w = min(_PANEL_WIDTH / nu_max if nu_max > 0.0 else math.inf, 0.5 * length)
    n_mid = max(1, math.ceil((length - 2.0 * w) / w))
    corner = w * np.concatenate(([0.0], _CORNER_BREAKS))
    middle = np.linspace(w, length - w, n_mid + 1)
    return np.unique(np.concatenate((corner, middle, length - corner)))


# G3 and G4 are the point reflections of G1 and G2 at the same parameter:
# G3(t) = -G1(t) and G4(t) = -G2(t). The parameter of G1 runs along y
# (t = y), that of G2 along x (t = -x).
_REFLECTED = {Side.G1: Side.G3, Side.G2: Side.G4}
_ALONG = {Side.G1: 1, Side.G2: 0}


def _boundary_nodes(rect: Rectangle, nu_max: float, level: int):
    """Composite Gauss-Legendre nodes with t > 0 on G1 and G2, level 0 or 1.

    Yields (side, t, x, y, weight) per side: t holds the positive side
    parameters and weight their arc-length weights; the coordinate that is
    constant on the side (x on G1, y on G2) is one value, an array of length
    1. The panels are symmetric about t = 0 and have an even number of
    nodes, so no node sits at t = 0: the full node set of the side is t and
    -t, with the same weights, and that of the reflected side
    _REFLECTED[side] is the same, at the points (-x, -y). Level 1 halves
    every panel of level 0.
    """
    for side in _REFLECTED:
        lo, hi = rect.side_interval(side)
        breaks = _panel_breaks(hi - lo, nu_max)
        if level:
            breaks = np.sort(np.concatenate((breaks, 0.5 * (breaks[:-1] + breaks[1:]))))
        mid = 0.5 * (breaks[:-1] + breaks[1:])[:, None]
        half = 0.5 * np.diff(breaks)[:, None]
        t = (lo + mid + half * _GL_NODES).ravel()
        positive = t > 0.0
        t = t[positive]
        x, y = rect.side_point(side, t)
        x, y = (x[:1], y) if side is Side.G1 else (x, y[:1])
        yield side, t, x, y, (half * _GL_WEIGHTS).ravel()[positive]


def _nu_max(spec: Spectrum) -> float:
    return float(spec.arrays.nu.max(initial=0.0))


def _parities(spec: Spectrum):
    """(odd, sigma), constant mode first.

    odd[j, a] tells whether mode j is odd along axis a (0 for x, 1 for y):
    s_j(-x, y) = -s_j(x, y) for a = 0. Along a side, mode j is then even or
    odd in the side parameter t, by the column _ALONG[side]. sigma[j] is the
    sign with s_j(-x, -y) = sigma[j] * s_j(x, y): -1 for the modes odd along
    one axis only (classes III and IV).
    """
    odd = _ODD_ALONG[spec.arrays.code]
    return odd, np.where(odd[:, 0] != odd[:, 1], -1.0, 1.0)


def _mode_blocks(spec: Spectrum, x: np.ndarray, y: np.ndarray):
    """(slice, Spectrum.values block) over consecutive blocks of _BLOCK nodes.

    One of x and y may be a single coordinate shared by all nodes; it is
    evaluated once per block.
    """
    for start in range(0, max(x.size, y.size), _BLOCK):
        block = slice(start, start + _BLOCK)
        yield block, spec.values(x if x.size == 1 else x[block], y if y.size == 1 else y[block])


def mode_gram_matrix(spec: Spectrum) -> np.ndarray:
    """Weighted boundary inner products of all modes, constant first.

    The (K+1, K+1) matrix S W S^T / |dOmega| on the level-1 nodes; for an
    orthonormal spectrum it is the identity. Two modes of different parity
    classes (odd along x or not, odd along y or not) are exactly orthogonal:
    on every side their product is odd in t, or the sums over a side and its
    reflected side cancel. Within a class the product is even in t and under
    the point reflection, so each class block is 4 times its sum over the
    t > 0 nodes of G1 and G2.
    """
    rect = spec.rectangle
    odd, _ = _parities(spec)
    parity_class = 2 * odd[:, 0] + odd[:, 1]
    classes = [np.flatnonzero(parity_class == c) for c in range(4)]
    blocks = [np.zeros((rows.size, rows.size)) for rows in classes]
    for _, _, x, y, w in _boundary_nodes(rect, _nu_max(spec), 1):
        for block, s in _mode_blocks(spec, x, y):
            s = np.vstack((np.ones(s.shape[1]), s))
            for rows, gram in zip(classes, blocks):
                sc = s[rows]
                gram += (sc * w[block]) @ sc.T
    out = np.zeros((spec.size, spec.size))
    for rows, gram in zip(classes, blocks):
        out[np.ix_(rows, rows)] = gram * (4.0 / rect.perimeter)
    return out


def _fixed_node_integrals(g: BoundaryFunction, spec: Spectrum) -> np.ndarray:
    """(K+1, 2): raw integrals of g against the constant and every mode, by level.

    On the t > 0 nodes of a side, the data enter folded: w * (g(t) + g(-t))
    and w * (g(t) - g(-t)) on the side and on its reflected side. A mode even
    in t takes the even pair of its sums, a mode odd in t the odd pair, and
    the reflected side's sum enters with the mode's reflection sign.
    """
    rect = spec.rectangle
    nu_max = _nu_max(spec)
    odd, sigma = _parities(spec)
    raw = np.zeros((spec.size, 2))
    for level in (0, 1):
        for side, t, x, y, w in _boundary_nodes(rect, nu_max, level):
            both = np.concatenate((t, -t))
            # g at t and at -t, on the side and on its reflected side
            (gp, gm), (rp, rm) = (g.value(on, both).reshape(2, -1) for on in (side, _REFLECTED[side]))
            # columns: even on the side, even on the reflected side, odd on each
            folded = w[:, None] * np.column_stack((gp + gm, rp + rm, gp - gm, rp - rm))
            sums = np.zeros((spec.size, 4))
            sums[0] = folded.sum(axis=0)
            for block, s in _mode_blocks(spec, x, y):
                sums[1:] += s @ folded[block]
            pair = np.where(odd[:, _ALONG[side], None], sums[:, 2:], sums[:, :2])
            raw[:, level] += pair[:, 0] + sigma * pair[:, 1]
    return raw


def steklov_coefficients(
    g: BoundaryFunction,
    spec: Spectrum,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
    limit: int = 200,
) -> SteklovCoefficients:
    """Weighted boundary inner products of g with every spectrum mode.

    Fixed-node quadrature at two levels (see the module docstring); the
    entries whose two-level difference misses max(abstol, reltol * |I|) on
    the raw integral I are recomputed together by panel-adaptive quadrature
    with (abstol, reltol, limit).
    """
    if g.rect != spec.rectangle:
        raise ValueError("boundary data and spectrum live on different rectangles")
    if abstol <= 0.0 or reltol <= 0.0:
        raise ValueError("tolerances must be positive")
    rect = spec.rectangle
    raw = _fixed_node_integrals(g, spec)
    values = raw[:, 1].copy()
    estimates = np.abs(raw[:, 1] - raw[:, 0])
    # a NaN estimate misses its target too
    missed = np.flatnonzero(~(estimates <= np.maximum(abstol, reltol * np.abs(values))))
    if missed.size:
        # the missed nonconstant modes as a spectrum of their own, so that
        # only their rows are evaluated; row 0 is the constant mode
        sub = spec.take(np.union1d(0, missed))
        rows = slice(0 if missed[0] == 0 else 1, None)

        def integrand(side, t):
            s = np.vstack((np.ones(t.size), sub.values(*rect.side_point(side, t))))
            return s[rows] * g.value(side, t)

        try:
            values[missed], estimates[missed] = _integrate_panels(rect, integrand, abstol, reltol, limit, _nu_max(spec), missed.size)
        except QuadratureError as exc:
            row = missed[exc.entry]
            label = f"mode {spec.family(row).value}, nu={spec.arrays.nu[row]:.6g}" if row else "mean value"
            raise QuadratureError(
                f"coefficient quadrature failed for {label}: {exc}",
                exc.side, exc.partial_value / rect.perimeter, exc.estimate / rect.perimeter,
            ) from exc
    values /= rect.perimeter
    estimates /= rect.perimeter
    return SteklovCoefficients(spec, float(values[0]), _readonly(values[1:]), _readonly(estimates))


# Kept for the benchmark, whose tracer wraps it by name.
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
