"""Boundary data on the rectangle: representation, quadrature, coefficients.

A BoundaryFunction is four per-side scalar maps. No continuity across corners
is assumed; each corner value is retrievable from both adjoining sides, which
lets genuinely discontinuous data (piecewise Neumann fluxes, say) coexist
with corner-interpolation for continuous data.

All boundary inner products carry the 1/perimeter weight, so the
boundary-normalized eigenfunctions are an orthonormal family and the
coefficient of data g against mode j is ghat_j = integral(g * s_j) / |dOmega|.
Raw (unweighted) arc-length integrals are what integrate_boundary returns.

Coefficients come from one fixed node set per (rectangle, nu), where nu is
the highest frequency of the integrand: nu_max, the largest frequency of the
spectrum, for a mode trace times the data, and 2 * nu_max for the product of
two mode traces (the Gram matrix). Each side is cut into the fewest equal
panels, an even number, no wider than _PANEL_WIDTH / nu. Across such a
panel the integrand turns through at most _PANEL_WIDTH radians or e-folds,
also inside the O(1/nu) corner layers of cosh(nu x), so no panel is graded
toward the corners. Every mode trace is analytic on each side, so these
panels converge geometrically. Each panel carries the 2 * _PANEL_POINTS + 1
nodes of the Gauss-Kronrod rule K49 that extends the _PANEL_POINTS-point
Gauss-Legendre rule G24 (_kronrod_rule): the G24 nodes are among them, and
a node set has two weight vectors, the Gauss weights (0 at the Kronrod-only
nodes) and the Kronrod weights. All integrals are S @ (w * g) under both,
with S the (K, N) matrix of Spectrum.values and g evaluated once per node.
S is evaluated in the blocks of nodes the spectrum chooses, and every
product is taken one 64-node column slice at a time (Spectrum._mode_blocks),
so no product depends on the block size. Data that share a spectrum
share its S: one pass over the nodes gives the coefficients of all of them.
An entry's value is its K49 sum, its error estimate |K49 - G24|, the error
of the G24 sum over whole panels.

S is evaluated on a quarter of the boundary, the t > 0 halves of G1 and G2.
The panels of a side are symmetric about t = 0, which the even panel
count makes a breakpoint, so no node sits at t = 0 and the side's
nodes are those t and their mirror images -t; G3 and G4 are the point
reflections of G1 and G2 at the same parameters. Along each side
every mode is even or odd in t (its factor along the side is cos or cosh,
or sin, sinh or linear), and it is even or odd under p -> -p. So the data
enter folded, w * (g(t) + g(-t)) and w * (g(t) - g(-t)) on a side and on
its reflected side, and each mode takes the even or the odd pair of its
sums. Data with a symmetry cancel whole classes: where a class's pair of
folded columns makes its sums exactly 0 for every data, bit for bit, the
class is not evaluated on that side if that saves _SKIP_ENTRIES mode x
node entries, and its rows keep their zeros. The orthonormality Gram
matrix of a spectrum (mode_gram_matrix) uses the Kronrod weights of the
node set for 2 * nu_max and the same symmetry: modes of different parity
classes are orthogonal, and each class block is 4 times its sum over these
nodes.

Every other boundary integral takes the same panels and rule, adaptively
(_integrate_panels): integrate_boundary, analysis.boundary_l2, and the
fallback that recomputes, in one call, every coefficient whose estimate
misses max(abstol, reltol * |I|), I its K49 sum. It starts from the same
equal panels on all four sides, on the same nodes (_panel_nodes), and
bisects a panel into two K49 panels where the data need it (a kink, a
corner singularity).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, Rectangle, Side, SIDES
from .spectrum import _ODD_ALONG, Spectrum


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on some side; entry numbers the
    integrand, reason is the message without its side clause, and floor is
    the rounding floor of the side's estimate when the estimate is at it
    (else None)."""

    def __init__(self, message: str, side: Side, partial_value: float, estimate: float, entry: int = 0,
                 floor: float | None = None):
        self.reason = message
        self.side = side
        self.partial_value = partial_value
        self.estimate = estimate
        self.entry = entry
        self.floor = floor
        super().__init__(
            f"{message} on {side.name} (partial value {partial_value:.6g}, "
            f"error estimate {estimate:.3g}" + ("" if floor is None else f", rounding floor {floor:.3g}") + ")"
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
                t = rect.side_parameter(side, x, y)
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
        from . import expressions  # loaded by expression data only

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
        """The corner's value as seen from each adjoining side, in
        counterclockwise order: the map of G1 (x = 1) or G3 (x = -1) and of
        G2 (y = h) or G4 (y = -h) at the corner itself."""
        x, y = corner
        if not (abs(x) == 1.0 and abs(y) == self.rect.h):
            raise GeometryError(f"({x}, {y}) is not a corner of the rectangle")
        sides = (Side.G1 if x > 0 else Side.G3, Side.G2 if y > 0 else Side.G4)
        return {side: self.side_maps[side](x, y) for side in (sides if x * y > 0 else sides[::-1])}

    def shift(self, c: float) -> "BoundaryFunction":
        maps = {
            side: (lambda x, y, fn=fn, c=c: fn(x, y) + c)
            for side, fn in self.side_maps.items()
        }
        # derived names name derived data only: unnamed data stay unnamed
        return BoundaryFunction(self.rect, maps, self.name and f"{self.name}+{c}")

    def subtract_bilinear(self, a0: float, a1: float, a2: float, a3: float) -> "BoundaryFunction":
        maps = {
            side: (
                lambda x, y, fn=fn: fn(x, y) - (a0 + a1 * x + a2 * y + a3 * x * y)
            )
            for side, fn in self.side_maps.items()
        }
        return BoundaryFunction(self.rect, maps, self.name and f"{self.name}-bilinear")


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
        from . import expressions

        if expressions.raised_pointwise(exc):
            raise
        out = [fn(a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
        return np.array(out, dtype=float).reshape(x.shape)
    return out if out.shape == x.shape else np.broadcast_to(out, x.shape).copy()


# ---------------------------------------------------------------------------
# panel-adaptive quadrature
# ---------------------------------------------------------------------------


def _panel_sums(fn, rect: Rectangle, side_of: np.ndarray, a: np.ndarray, b: np.ndarray, entries: int) -> np.ndarray:
    """(P, 2, m): the G24 and the K49 sums of fn over each panel [lo + a, lo + b]
    of SIDES[side_of], lo the side's start (_panel_nodes). fn is called per
    side, on at most _ENTRIES // entries nodes (but at least one panel) at a time."""
    _, kronrod, gauss = _kronrod_rule()
    rules = np.column_stack((gauss, kronrod))
    out = np.empty((side_of.size, 2, entries))
    per_call = max(1, _ENTRIES // (entries * kronrod.size))
    for k in np.unique(side_of):
        lo = rect.side_interval(SIDES[k])[0]
        on_side = np.flatnonzero(side_of == k)
        for on in (on_side[i:i + per_call] for i in range(0, on_side.size, per_call)):
            t, half = _panel_nodes(lo, a[on], b[on])
            v = np.asarray(fn(SIDES[k], t.ravel()), dtype=float)
            v = np.broadcast_to(v, v.shape[:-1] + (t.size,)).reshape(entries, *t.shape)
            out[on] = np.moveaxis(v @ rules, 0, -1) * half[..., None]
    return out


def _integrate_panels(rect: Rectangle, fn, abstol: float, reltol: float, limit: int,
                      nu_max: float = 0.0, entries: int = 1):
    """(I, estimate): raw arc-length integrals of fn over the boundary, shape (m,).

    fn(side, t) maps an array of n side parameters to n values, or to (m, n)
    values of m = entries integrands. Each side starts from the equal
    panels of _panel_breaks(nu_max), nu_max the integrands' top frequency
    (0: none known, two panels). A panel takes the rule of the fixed node
    set: its value is the K49 sum, its estimate |K49 - G24|, from one
    evaluation of fn at its 49 nodes. Every panel that misses its length
    share of max(abstol, reltol * |I|) for some integrand is bisected into
    two new panels, until none does. A panel too short to split, whose
    midpoint rounds onto an end, is kept as it is if its estimates are
    finite: its estimate still counts in the total. Once bisection would add
    more than `limit` panels to a side, QuadratureError reports the
    integrand furthest from its target; a NaN never meets its target, and
    the targets take |I| over the finite panel values only. It
    says the tolerance is below rounding, and gives the floor, when that
    side's estimate is within 50 ulp of the magnitudes of its panel values.
    """
    breaks = [_panel_breaks(hi - lo, nu_max) for lo, hi in map(rect.side_interval, SIDES)]
    side_of = np.repeat(np.arange(len(SIDES)), [br.size - 1 for br in breaks])
    a, b = np.concatenate([br[:-1] for br in breaks]), np.concatenate([br[1:] for br in breaks])
    sums = _panel_sums(fn, rect, side_of, a, b, entries)
    added = np.zeros(len(SIDES), dtype=int)
    while True:
        value = sums[:, 1]
        est = np.abs(value - sums[:, 0])
        # a panel that is not finite misses its own target, not every other's
        target = np.maximum(abstol, reltol * np.abs(np.where(np.isfinite(value), value, 0.0).sum(axis=0)))
        mid = a + (b - a) / 2
        final = ((mid == a) | (mid == b)) & np.isfinite(est).all(axis=1)
        miss = ~(est <= (b - a)[:, None] / rect.perimeter * target).all(axis=1) & ~final
        if not miss.any():
            return value.sum(axis=0), est.sum(axis=0)
        added += np.bincount(side_of[miss], minlength=len(SIDES))
        if (added > limit).any():
            k = int(np.argmax(added > limit))
            on = side_of == k
            side_est = est[on].sum(axis=0)
            entry = int(np.argmax(side_est / target))
            partial, side_est = float(value[on, entry].sum()), float(side_est[entry])
            # QUADPACK's roundoff test: 50 ulp of the magnitudes of the side's panel values
            floor = 50.0 * np.finfo(float).eps * float(np.abs(value[on, entry]).sum())
            if side_est <= floor < math.inf:
                raise QuadratureError(f"the tolerance is below the rounding floor after {limit} panel bisections",
                                      SIDES[k], partial, side_est, entry, floor)
            raise QuadratureError(f"no convergence within {limit} panel bisections", SIDES[k], partial, side_est, entry)
        # a missed panel becomes two new panels, its halves
        keep = ~miss
        side_of = np.concatenate((side_of[keep], side_of[miss], side_of[miss]))
        a, b = np.concatenate((a[keep], a[miss], mid[miss])), np.concatenate((b[keep], mid[miss], b[miss]))
        fresh = slice(np.count_nonzero(keep), None)
        sums = np.concatenate((sums[keep], _panel_sums(fn, rect, side_of[fresh], a[fresh], b[fresh], entries)))


def integrate_boundary(f: BoundaryFunction, abstol: float = 1e-10, reltol: float = 1e-6, limit: int = 200):
    """Raw arc-length integral of the BoundaryFunction f and an error estimate.

    The bisected K49 panels of _integrate_panels: the estimate meets
    max(abstol, reltol * |I|), or QuadratureError after `limit` bisections of a side.
    """
    if not (0.0 < abstol < math.inf and 0.0 < reltol < math.inf):
        raise ValueError("tolerances must be positive and finite")
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
    An estimate is |K49 - G24| of the entry's fixed-node sums (module
    docstring), or the sum of its panels' |K49 - G24| if it fell back.
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


# Fixed-node quadrature. A panel is at most _PANEL_WIDTH / nu wide for an
# integrand of top frequency nu (nu_max for a mode trace times the data,
# 2 * nu_max for the product of two traces), so the integrand turns through
# at most _PANEL_WIDTH radians (or e-folds) across it, which _PANEL_POINTS
# Gauss-Legendre nodes integrate to rounding. That holds for every panel of
# the side, the corner layers of cosh(nu x) included, so the panels of a
# side are equal (_panel_breaks). The fixed-node rule takes the
# 2 * _PANEL_POINTS + 1 nodes of its Gauss-Kronrod extension on each panel
# (_kronrod_rule): the Kronrod sum is the value, its difference from the
# Gauss sum on the same nodes the estimate.
_PANEL_POINTS = 24
_PANEL_WIDTH = 32.0
_ENTRIES = 2**16  # integrand values per call of a panel-adaptive integrand


@functools.cache
def _kronrod_rule():
    """(nodes, Kronrod weights, Gauss weights) of the Gauss-Kronrod rule on
    [-1, 1] that extends the n = _PANEL_POINTS point Gauss-Legendre rule
    by n + 1 nodes, exact for polynomials of degree 3n + 1.

    The Jacobi-Kronrod matrix comes from the Legendre recurrence by
    Laurie's algorithm (D. P. Laurie, Math. Comp. 66 (1997) 1133-1145); for
    a symmetric weight its diagonal is 0, and so are the recurrence
    coefficients a. The nodes are its eigenvalues, the weights 2 times the
    squared first components of its eigenvectors, both made symmetric
    about 0. The Gauss nodes interlace with the others, at the odd
    positions; they and the Gauss weights are those of leggauss verbatim.
    The Gauss weights are 0 at the other nodes.
    """
    n = _PANEL_POINTS
    b = np.zeros(2 * n + 1)  # the Legendre recurrence up to ceil(3n / 2), then Laurie's
    i = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[0], b[1:i.size + 1] = 2.0, i * i / (4.0 * i * i - 1.0)
    s, t = np.zeros((2, n // 2 + 2))  # two rows of Laurie's mixed moments
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - k)
            u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    kronrod = 2.0 * vectors[0] ** 2
    nodes, kronrod = 0.5 * (nodes - nodes[::-1]), 0.5 * (kronrod + kronrod[::-1])
    gauss = np.zeros_like(kronrod)
    nodes[1::2], gauss[1::2] = np.polynomial.legendre.leggauss(n)
    return nodes, kronrod, gauss


def _panel_breaks(length: float, nu: float) -> np.ndarray:
    """Panel breakpoints on [0, length] for an integrand of top frequency nu:
    the fewest equal panels, an even number, no wider than _PANEL_WIDTH / nu
    (two for nu 0). So the midpoint of [0, length] is always a breakpoint."""
    n = 2 * max(1, math.ceil(length * nu / (2.0 * _PANEL_WIDTH)))
    return np.linspace(0.0, length, n + 1)


# G3 and G4 are the point reflections of G1 and G2 at the same parameter:
# G3(t) = -G1(t) and G4(t) = -G2(t). The parameter of G1 runs along y
# (t = y), that of G2 along x (t = -x).
_REFLECTED = {Side.G1: Side.G3, Side.G2: Side.G4}
_ALONG = {Side.G1: 1, Side.G2: 0}


def _panel_nodes(lo: float, a: np.ndarray, b: np.ndarray):
    """(t, half): the K49 nodes of the panels [lo + a, lo + b], a (P, 49)
    array, and their half widths, (P, 1); a and b are offsets from the side
    start lo. The node sets of _boundary_nodes and of _integrate_panels."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return lo + mid + half * _kronrod_rule()[0], half


def _boundary_nodes(rect: Rectangle, nu: float):
    """Composite Gauss-Kronrod nodes with t > 0 on G1 and G2, on the equal
    panels of _panel_breaks for an integrand of top frequency nu.

    Yields (side, t, x, y, gauss, kronrod) per side: t holds the positive
    side parameters, gauss and kronrod their arc-length weights under the
    two rules of _kronrod_rule (gauss is 0 at the Kronrod-only nodes). The
    coordinate that is constant on the side (x on G1, y on G2) is one value,
    an array of length 1. The panels are symmetric about t = 0, which is a
    breakpoint, so no node sits at t = 0: the full node set of the side is
    t and -t, with the same weights, and that of the reflected side
    _REFLECTED[side] is the same, at the points (-x, -y).
    """
    _, kronrod, gauss = _kronrod_rule()
    for side in _REFLECTED:
        lo, hi = rect.side_interval(side)
        breaks = _panel_breaks(hi - lo, nu)
        t, half = _panel_nodes(lo, breaks[:-1], breaks[1:])
        t = t.ravel()
        positive = t > 0.0
        t = t[positive]
        x, y = rect.side_point(side, t)
        x, y = (x[:1], y) if side is Side.G1 else (x, y[:1])
        yield side, t, x, y, (half * gauss).ravel()[positive], (half * kronrod).ravel()[positive]


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


def mode_gram_matrix(spec: Spectrum) -> np.ndarray:
    """Weighted boundary inner products of all modes, constant first.

    The (K+1, K+1) matrix S W S^T / |dOmega|, W the Kronrod weights of the
    node set for the products of two traces, of top frequency 2 * nu_max
    (_boundary_nodes); for an orthonormal spectrum it is the identity. Two
    modes of different parity classes (odd along x or not, odd along y or
    not) are exactly orthogonal: on every side their product is odd in t,
    or the sums over a side and its reflected side cancel. Within a class the product is even in t and under
    the point reflection, so each class block is 4 times its sum over the
    t > 0 nodes of G1 and G2.
    """
    rect = spec.rectangle
    odd, _ = _parities(spec)
    parity_class = 2 * odd[:, 0] + odd[:, 1]
    classes = [np.flatnonzero(parity_class == c) for c in range(4)]
    blocks = [np.zeros((rows.size, rows.size)) for rows in classes]
    for _, _, x, y, _, w in _boundary_nodes(rect, 2.0 * _nu_max(spec)):
        for block, s in spec._mode_blocks(x, y):
            s = np.vstack((np.ones(s.shape[1]), s))
            for rows, gram in zip(classes, blocks):
                sc = s[rows]
                gram += (sc * w[block]) @ sc.T
    out = np.zeros((spec.size, spec.size))
    for rows, gram in zip(classes, blocks):
        out[np.ix_(rows, rows)] = gram * (4.0 / rect.perimeter)
    return out


# A parity class whose sums cancel exactly on a side is skipped there
# (_cancelled_classes): only the other classes are evaluated, as a
# sub-spectrum (Spectrum.take), and the skipped rows keep their exact zeros.
# The sub-spectrum and its factor plans cost 60-85 us (100-300 modes, 2
# vCPUs), the factor kernel and the products about 9 ns per mode x node
# entry (400 modes, one CPU). So a side skips only when that drops at
# least _SKIP_ENTRIES entries, about 190 us of kernel time, and a side of
# fewer entries in all is not checked. The 400-mode solves of symmetric
# data drop 49k-132k entries per side (not the 400 x 49 of the short sides
# at h = 0.1); a 41-80-mode pass of the tables or of a field solve has at
# most 80 x 98 entries per side and evaluates every mode, as before.
_SKIP_ENTRIES = 20_000
# The folded columns come in pairs (A, B), the side's and the reflected
# side's, per rule and parity: Gauss even, Gauss odd, Kronrod even, Kronrod
# odd. f @ _PAIR_SUMS gives A - B and A + B of each pair, exactly (one
# rounding of two exact terms). A parity class (2 * odd along x + odd along
# y) cancels on a side along axis a where its pair under each rule, even or
# odd by its parity along a, has A - B = 0 (odd along one axis only: sigma
# -1) or A + B = 0 (sigma +1): _CANCEL_COLUMNS[a] holds those two columns.
_PAIR_SUMS = np.kron(np.eye(4), [[1.0, 1.0], [-1.0, 1.0]])
_ODD_X, _ODD_Y = np.divmod(np.arange(4), 2)  # per parity class
_CANCEL_COLUMNS = [(col, col + 4) for col in (2 * odd + (_ODD_X == _ODD_Y) for odd in (_ODD_X, _ODD_Y))]


def _cancelled_classes(folded, along: int) -> np.ndarray:
    """(4,) bools: the parity classes whose sums are exactly 0 for every
    folded data in `folded` (_fixed_node_integrals) on a side along axis
    `along`, under both rules.

    A class takes the even or the odd pair (A, B) of columns, by its parity
    along the side, and sums S @ A + sigma * S @ B. Equal columns give equal
    products, and a product of -B is minus that of B, so the sum is exactly
    0, bit for bit, where A - B (sigma -1) or A + B (sigma +1) is 0 at
    every node: A = -sigma * B, both 0 included, and both finite. An inf or
    a NaN in a row makes every difference and sum of the row NaN, and no
    class cancels there.
    """
    zero = np.ones(8, dtype=bool)
    for f in folded:
        zero &= ~(f @ _PAIR_SUMS).any(axis=0)
    gauss, kronrod = _CANCEL_COLUMNS[along]
    return zero[gauss] & zero[kronrod]


def _fixed_node_integrals(gs, spec: Spectrum) -> list[np.ndarray]:
    """(K+1, 2) per data in gs: raw integrals against the constant and every
    mode, by the Gauss rule (column 0) and the Kronrod rule (column 1).

    On the t > 0 nodes of a side, the data enter folded: w * (g(t) + g(-t))
    and w * (g(t) - g(-t)) on the side and on its reflected side, under the
    Gauss and the Kronrod weights. A mode even in t takes the even pair of
    its sums, a mode odd in t the odd pair, and the reflected side's sum
    enters with the mode's reflection sign. The modes are evaluated once per
    node for all the data; each data takes its own product with every
    block, as it would alone. The classes whose sums cancel for every data
    are not evaluated where that saves _SKIP_ENTRIES mode x node entries.
    """
    rect = spec.rectangle
    odd, sigma = _parities(spec)
    parity_class = 2 * odd[1:, 0] + odd[1:, 1]
    subs = {}  # the evaluated sub-spectrum and its rows, per set of skipped classes
    raws = [np.zeros((spec.size, 2)) for _ in gs]
    for side, t, x, y, gauss, kronrod in _boundary_nodes(rect, _nu_max(spec)):
        both = np.concatenate((t, -t))
        folded = []
        for g in gs:
            # g at t and at -t, on the side and on its reflected side
            (gp, gm), (rp, rm) = (g.value(on, both).reshape(2, -1) for on in (side, _REFLECTED[side]))
            # columns: even on the side, even on the reflected side, odd on
            # each; under the Gauss weights, then under the Kronrod weights
            f = np.column_stack((gp + gm, rp + rm, gp - gm, rp - rm))
            folded.append(np.hstack((gauss[:, None] * f, kronrod[:, None] * f)))
        sub, rows = spec, slice(1, None)
        if (spec.size - 1) * t.size >= _SKIP_ENTRIES:
            skipped = _cancelled_classes(folded, _ALONG[side])
            if np.count_nonzero(skipped[parity_class]) * t.size >= _SKIP_ENTRIES:
                if (key := skipped.tobytes()) not in subs:
                    live = 1 + np.flatnonzero(~skipped[parity_class])
                    subs[key] = spec.take(np.append(0, live)), live
                sub, rows = subs[key]
        parts = [np.zeros((sub.size - 1, 8)) for _ in gs]
        for block, s in sub._mode_blocks(x, y):
            for f, part in zip(folded, parts):
                part += s @ f[block]
        for raw, f, part in zip(raws, folded, parts):
            total = np.zeros((spec.size, 8))
            total[0], total[rows] = f.sum(axis=0), part
            total = total.reshape(spec.size, 2, 4)
            pair = np.where(odd[:, _ALONG[side], None, None], total[..., 2:], total[..., :2])
            raw += pair[..., 0] + sigma[:, None] * pair[..., 1]
    return raws


def steklov_coefficients(
    g: BoundaryFunction,
    spec: Spectrum,
    abstol: float = 1e-10,
    reltol: float = 1e-6,
    limit: int = 200,
) -> SteklovCoefficients:
    """Weighted boundary inner products of g with every spectrum mode.

    Fixed-node quadrature by the Gauss-Kronrod pair G24 and K49 on every
    panel (see the module docstring): each entry is its K49 sum, its
    estimate |K49 - G24|. The entries whose estimate misses
    max(abstol, reltol * |I|) on the raw K49 integral I are recomputed
    together by panel-adaptive quadrature with (abstol, reltol, limit).
    """
    return _coefficient_sets([g], spec, abstol, reltol, limit)[0]


def _coefficient_sets(gs, spec: Spectrum, abstol: float, reltol: float, limit: int = 200) -> list[SteklovCoefficients]:
    """steklov_coefficients of each data in gs, from one fixed-node pass
    (_fixed_node_integrals); each data's fallback is its own."""
    if any(g.rect != spec.rectangle for g in gs):
        raise ValueError("boundary data and spectrum live on different rectangles")
    if not (0.0 < abstol < math.inf and 0.0 < reltol < math.inf):
        raise ValueError("tolerances must be positive and finite")
    raws = _fixed_node_integrals(gs, spec)
    return [_coefficients(g, spec, raw, abstol, reltol, limit) for g, raw in zip(gs, raws)]


def _coefficients(g: BoundaryFunction, spec: Spectrum, raw: np.ndarray,
                  abstol: float, reltol: float, limit: int) -> SteklovCoefficients:
    """steklov_coefficients of g from its fixed-node integrals raw: the
    entries that miss their targets fall back to panel-adaptive quadrature."""
    rect = spec.rectangle
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
                f"coefficient quadrature failed for {label}: {exc.reason}",
                exc.side, exc.partial_value / rect.perimeter, exc.estimate / rect.perimeter,
                floor=None if exc.floor is None else exc.floor / rect.perimeter,
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
