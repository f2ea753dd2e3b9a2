"""Harmonic Steklov eigenpairs of the rectangle (-1,1) x (-h,h).

Every eigenfunction except the constant and (for the square) xy separates as
H(nu*u) * T(nu*v), one hyperbolic factor and one trigonometric factor, with
the frequency nu solving a transcendental characteristic equation. There are
eight such families, indexed F1..F8, grouped by parity about the center:

    class I   (even x, even y):  F1 cosh(nu x) cos(nu y),  F2 cos(nu x) cosh(nu y)
    class II  (odd x, odd y):    F3 sinh(nu x) sin(nu y),  F4 sin(nu x) sinh(nu y)
    class III (even x, odd y):   F5 cosh(nu x) sin(nu y),  F6 cos(nu x) sinh(nu y)
    class IV  (odd x, even y):   F7 sinh(nu x) cos(nu y),  F8 sin(nu x) cosh(nu y)

The eigenvalue delta (in the convention D_nu s = delta * s on the boundary)
equals the outward log-derivative of the hyperbolic factor at its edge:
nu*tanh(nu*aH) for cosh profiles, nu*coth(nu*aH) for sinh profiles, where aH
is the half-extent of the hyperbolic axis. The characteristic equation is the
matching condition on the trigonometric sides:

    cos profile:  tan(nu*aT) = -R(nu)        sin profile:  cot(nu*aT) = R(nu)

with R the eigenvalue factor tanh(nu*aH) or coth(nu*aH) and aT the half-extent
of the trigonometric axis. Each equation has exactly one root per branch of
the periodic factor, which gives guaranteed brackets for bisection.

Hyperbolic factors are evaluated in exponentially rescaled form, exp(nu*aH)
factored out of both the raw profile and the normalization constant, so modes
remain finite in double precision for nu up to roughly 700.

A Spectrum evaluates all its nonconstant modes at once from these separable
factors: the (K, N) matrix of values, the weighted expansion and its gradient
at points (in blocks of bounded size), and the expansion on a tensor grid as
one matrix product of the two factor matrices.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import Rectangle, Side

PER_FAMILY = "per-family"
GLOBAL_SORTED = "global-sorted"


class SpectrumError(RuntimeError):
    """Inconsistent eigendata (bad cache entry, invalid nu, ...)."""


class RootFindError(SpectrumError):
    """Characteristic-equation root search failed on a branch."""

    def __init__(self, family, branch: int, bracket: tuple[float, float], detail: str):
        self.family = family
        self.branch = branch
        self.bracket = bracket
        super().__init__(
            f"{family.value}: no sign change / no convergence on branch {branch}, "
            f"nu bracket [{bracket[0]:.6g}, {bracket[1]:.6g}]: {detail}"
        )


class FamilyTag(enum.Enum):
    CONST = "const"
    XY = "xy"
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"
    F5 = "f5"
    F6 = "f6"
    F7 = "f7"
    F8 = "f8"

    @property
    def is_separable(self) -> bool:
        return self not in (FamilyTag.CONST, FamilyTag.XY)

    @property
    def order(self) -> int:
        """Tag order used to break eigenvalue ties deterministically."""
        return list(FamilyTag).index(self)


@dataclass(frozen=True)
class _FamilyInfo:
    hyp_axis: str  # 'x' or 'y': axis carrying the hyperbolic factor
    hyp: str  # 'cosh' or 'sinh'
    trig: str  # 'cos' or 'sin'
    sym_class: str  # 'I'..'IV'


_FAMILIES: dict[FamilyTag, _FamilyInfo] = {
    FamilyTag.F1: _FamilyInfo("x", "cosh", "cos", "I"),
    FamilyTag.F2: _FamilyInfo("y", "cosh", "cos", "I"),
    FamilyTag.F3: _FamilyInfo("x", "sinh", "sin", "II"),
    FamilyTag.F4: _FamilyInfo("y", "sinh", "sin", "II"),
    FamilyTag.F5: _FamilyInfo("x", "cosh", "sin", "III"),
    FamilyTag.F6: _FamilyInfo("y", "sinh", "cos", "III"),
    FamilyTag.F7: _FamilyInfo("x", "sinh", "cos", "IV"),
    FamilyTag.F8: _FamilyInfo("y", "cosh", "sin", "IV"),
}


def family_info(family: FamilyTag) -> _FamilyInfo:
    try:
        return _FAMILIES[family]
    except KeyError:
        raise SpectrumError(f"{family} has no separable profile") from None


def family_class(family: FamilyTag) -> str:
    if family is FamilyTag.CONST:
        return "I"
    if family is FamilyTag.XY:
        return "II"
    return _FAMILIES[family].sym_class


def _axis_extents(info: _FamilyInfo, rect: Rectangle) -> tuple[float, float]:
    """(aT, aH): half-extents of the trigonometric and hyperbolic axes."""
    if info.hyp_axis == "x":
        return rect.h, 1.0
    return 1.0, rect.h


# ---------------------------------------------------------------------------
# scaled hyperbolic helpers: value * exp(-s) with s >= |z|, overflow free
# ---------------------------------------------------------------------------


def _cosh_scaled(z: float, s: float) -> float:
    az = abs(z)
    return 0.5 * math.exp(az - s) * (1.0 + math.exp(-2.0 * az))


def _sinh_scaled(z: float, s: float) -> float:
    az = abs(z)
    mag = 0.5 * math.exp(az - s) * (-math.expm1(-2.0 * az))
    return mag if z >= 0.0 else -mag


def _one_minus_sinc(x: float) -> float:
    """1 - sin(x)/x, accurate near x = 0."""
    if abs(x) < 1e-4:
        x2 = x * x
        return x2 / 6.0 - x2 * x2 / 120.0
    return 1.0 - math.sin(x) / x


def _sinh_square_integral_scaled(a: float, nu: float) -> float:
    """exp(-2*nu*a) * integral of sinh(nu t)^2 over [-a, a]."""
    s = nu * a
    if s < 1e-3:
        # exp(-2s) * (-a + sinh(2s)/(2 nu)) ~ a s^2 (2/3 - 4s/3 + 22 s^2/15)
        return a * s * s * (2.0 / 3.0 - 4.0 * s / 3.0 + 22.0 * s * s / 15.0)
    return -a * math.exp(-2.0 * s) + (-math.expm1(-4.0 * s)) / (4.0 * nu)


def _cosh_square_integral_scaled(a: float, nu: float) -> float:
    """exp(-2*nu*a) * integral of cosh(nu t)^2 over [-a, a]."""
    s = nu * a
    return a * math.exp(-2.0 * s) + (-math.expm1(-4.0 * s)) / (4.0 * nu)


# ---------------------------------------------------------------------------
# characteristic equations and root finding
# ---------------------------------------------------------------------------

# Branch layout in the local variable theta = nu*aT - k*pi. The periodic
# factor is evaluated at theta, which avoids large-argument trig reduction.
_QP = 0.25 * math.pi
_HP = 0.5 * math.pi


def _branch_layout(info: _FamilyInfo, a_t: float, a_h: float):
    """(theta_lo, theta_hi, k_start, extra_k0) for one family."""
    if info.trig == "cos":
        if info.hyp == "cosh":
            return -_QP, 0.0, 1, False  # tan(theta) = -tanh
        return -_HP, -_QP, 1, False  # cot(theta) = -tanh
    if info.hyp == "cosh":
        return _QP, _HP, 0, False  # cot(theta) = tanh
    # sin/sinh: tan(theta) = tanh; an extra low branch exists when the
    # trigonometric axis is the shorter one (F3 for h < 1)
    return 0.0, _QP, 1, a_t < a_h


def _char_local(info: _FamilyInfo, a_t: float, a_h: float, k: int, theta: float):
    """Characteristic function and derivative at branch k, local angle theta."""
    nu = (k * math.pi + theta) / a_t
    th = math.tanh(nu * a_h)
    dth = (1.0 - th * th) * a_h / a_t
    if info.trig == "cos":
        if info.hyp == "cosh":
            t = math.tan(theta)
            return t + th, (1.0 + t * t) + dth
        c = _cot(theta)
        return c + th, -(1.0 + c * c) + dth
    if info.hyp == "cosh":
        c = _cot(theta)
        return c - th, -(1.0 + c * c) - dth
    t = math.tan(theta)
    return t - th, (1.0 + t * t) - dth


def _cot(theta: float) -> float:
    return math.cos(theta) / math.sin(theta)


_TINY_THETA = 1e-9  # left edge of the extra F3 branch for h < 1


def find_roots(family: FamilyTag, rect: Rectangle, count: int, tol: float = 1e-12) -> list[float]:
    """The `count` smallest positive roots of a family's characteristic equation.

    Each root is bracketed on a single branch of the periodic factor and
    refined by bisection until the bracket width (in nu) is at most `tol`,
    then polished with a few Newton steps inside the bracket.
    """
    if not family.is_separable:
        raise SpectrumError(f"{family.value} has no characteristic equation")
    if tol < 1e-14:
        raise ValueError(f"tol must be >= 1e-14, got {tol}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    info = family_info(family)
    a_t, a_h = _axis_extents(info, rect)
    lo0, hi0, k_start, extra_k0 = _branch_layout(info, a_t, a_h)

    branches = []
    if extra_k0:
        branches.append((0, _TINY_THETA, hi0))
    k = k_start
    while len(branches) < count:
        branches.append((k, lo0, hi0))
        k += 1
    branches = branches[:count]

    roots = []
    for k, lo, hi in branches:
        roots.append(_solve_branch(family, info, a_t, a_h, k, lo, hi, tol))
    return roots


def _solve_branch(family, info, a_t, a_h, k, lo, hi, tol) -> float:
    def f(theta):
        return _char_local(info, a_t, a_h, k, theta)[0]

    bracket_nu = ((k * math.pi + lo) / a_t, (k * math.pi + hi) / a_t)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return bracket_nu[0]
    if fhi == 0.0:
        return bracket_nu[1]
    if flo * fhi > 0.0:
        # For large nu the tanh factor saturates and the root sits within an
        # ulp of a bracket endpoint; accept an endpoint whose residual is at
        # rounding level instead of demanding a sign change.
        for theta_end, fend, nu_end in ((lo, flo, bracket_nu[0]), (hi, fhi, bracket_nu[1])):
            scale = max(1.0, abs(_char_local(info, a_t, a_h, k, theta_end)[1]))
            if abs(fend) <= 100.0 * 2.220446049250313e-16 * scale:
                return nu_end
        raise RootFindError(family, k, bracket_nu, f"f(ends) = ({flo:.3g}, {fhi:.3g})")

    theta_tol = tol * a_t
    a, b, fa = lo, hi, flo
    for _ in range(250):
        if b - a <= theta_tol:
            break
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            a = b = mid
            break
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    else:
        raise RootFindError(family, k, bracket_nu, "bisection iteration cap reached")

    theta = 0.5 * (a + b)
    fval, fder = _char_local(info, a_t, a_h, k, theta)
    for _ in range(3):
        if fder == 0.0:
            break
        step = fval / fder
        cand = theta - step
        if not (lo <= cand <= hi):
            break
        cval, cder = _char_local(info, a_t, a_h, k, cand)
        if abs(cval) >= abs(fval):
            break
        theta, fval, fder = cand, cval, cder
    return (k * math.pi + theta) / a_t


def char_residual(family: FamilyTag, nu: float, rect: Rectangle) -> tuple[float, float]:
    """(residual, derivative scale) of the characteristic equation at nu."""
    info = family_info(family)
    a_t, a_h = _axis_extents(info, rect)
    r = nu * a_t
    k = int(math.floor(r / math.pi + 0.5))
    theta = r - k * math.pi
    fval, fder = _char_local(info, a_t, a_h, k, theta)
    return fval, max(1.0, abs(fder))


def eigenvalue_of(family: FamilyTag, nu: float, rect: Rectangle) -> float:
    """Steklov eigenvalue for a separable frequency: nu*tanh(nu*aH) or nu*coth(nu*aH)."""
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    info = family_info(family)
    _, a_h = _axis_extents(info, rect)
    t = math.tanh(nu * a_h)
    return nu * t if info.hyp == "cosh" else nu / t


def boundary_norm_constant(family: FamilyTag, nu: float, rect: Rectangle) -> float:
    """Multiplier making the trace satisfy integral(s^2) = perimeter on the boundary."""
    if family is FamilyTag.CONST:
        return 1.0
    if family is FamilyTag.XY:
        if not rect.is_square:
            raise SpectrumError("the xy mode exists only on the square (h = 1)")
        return math.sqrt(3.0)
    scaled, s = _norm_scaled(family, nu, rect)
    return scaled * math.exp(-s)


def _norm_scaled(family: FamilyTag, nu: float, rect: Rectangle) -> tuple[float, float]:
    """(normConst * exp(nu*aH), nu*aH): the stable normalization pair."""
    info = family_info(family)
    a_t, a_h = _axis_extents(info, rect)
    s = nu * a_h

    if info.hyp == "cosh":
        hyp_edge = _cosh_scaled(s, s)
        hyp_int = _cosh_square_integral_scaled(a_h, nu)
    else:
        hyp_edge = _sinh_scaled(s, s)
        hyp_int = _sinh_square_integral_scaled(a_h, nu)

    r = nu * a_t
    if info.trig == "cos":
        trig_edge = math.cos(r)
        trig_int = 2.0 * a_t - a_t * _one_minus_sinc(2.0 * r)  # a_t + sin(2r)/(2 nu)
    else:
        trig_edge = math.sin(r)
        trig_int = a_t * _one_minus_sinc(2.0 * r)  # a_t - sin(2r)/(2 nu)

    scaled_integral = 2.0 * (hyp_edge * hyp_edge * trig_int + trig_edge * trig_edge * hyp_int)
    if not (scaled_integral > 0.0):
        raise SpectrumError(
            f"nonpositive boundary square integral for {family.value}, nu={nu}: "
            f"{scaled_integral}"
        )
    return math.sqrt(rect.perimeter / scaled_integral), s


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteklovMode:
    """One boundary-normalized eigenpair, evaluable on the closed rectangle."""

    family: FamilyTag
    nu: float
    delta: float
    rect: Rectangle
    norm_scaled: float  # normConst * exp(hyp_scale)
    hyp_scale: float  # nu * aH (0 for const/xy)
    index: int = -1  # position in the delta-sorted spectrum
    family_rank: int = 0  # root ordinal within the family

    @property
    def norm_const(self) -> float:
        return self.norm_scaled * math.exp(-self.hyp_scale)

    @property
    def key(self) -> tuple[str, float]:
        return (self.family.value, self.nu)

    def value(self, x: float, y: float) -> float:
        self.rect.require_inside(x, y)
        return self._value_unchecked(x, y)

    def _value_unchecked(self, x: float, y: float) -> float:
        fam = self.family
        if fam is FamilyTag.CONST:
            return 1.0
        if fam is FamilyTag.XY:
            return self.norm_scaled * x * y
        info = _FAMILIES[fam]
        u, v = (x, y) if info.hyp_axis == "x" else (y, x)
        if info.hyp == "cosh":
            hyp = _cosh_scaled(self.nu * u, self.hyp_scale)
        else:
            hyp = _sinh_scaled(self.nu * u, self.hyp_scale)
        trig = math.cos(self.nu * v) if info.trig == "cos" else math.sin(self.nu * v)
        return self.norm_scaled * hyp * trig

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        self.rect.require_inside(x, y)
        return self._gradient_unchecked(x, y)

    def _gradient_unchecked(self, x: float, y: float) -> tuple[float, float]:
        fam = self.family
        if fam is FamilyTag.CONST:
            return (0.0, 0.0)
        if fam is FamilyTag.XY:
            return (self.norm_scaled * y, self.norm_scaled * x)
        info = _FAMILIES[fam]
        u, v = (x, y) if info.hyp_axis == "x" else (y, x)
        nu, s = self.nu, self.hyp_scale
        if info.hyp == "cosh":
            hyp, dhyp = _cosh_scaled(nu * u, s), _sinh_scaled(nu * u, s)
        else:
            hyp, dhyp = _sinh_scaled(nu * u, s), _cosh_scaled(nu * u, s)
        if info.trig == "cos":
            trig, dtrig = math.cos(nu * v), -math.sin(nu * v)
        else:
            trig, dtrig = math.sin(nu * v), math.cos(nu * v)
        du = self.norm_scaled * nu * dhyp * trig
        dv = self.norm_scaled * nu * hyp * dtrig
        return (du, dv) if info.hyp_axis == "x" else (dv, du)

    def trace(self, side: Side, t: float) -> float:
        x, y = self.rect.side_point(side, t)
        return self._value_unchecked(x, y)

    def normal_derivative_on(self, side: Side, t: float) -> float:
        x, y = self.rect.side_point(side, t)
        gx, gy = self._gradient_unchecked(x, y)
        nx, ny = self.rect.outward_normal(side)
        return gx * nx + gy * ny


def make_mode(family: FamilyTag, rect: Rectangle, nu: float = 0.0, family_rank: int = 0) -> SteklovMode:
    if family is FamilyTag.CONST:
        return SteklovMode(family, 0.0, 0.0, rect, 1.0, 0.0, family_rank=family_rank)
    if family is FamilyTag.XY:
        if not rect.is_square:
            raise SpectrumError("the xy mode exists only on the square (h = 1)")
        return SteklovMode(family, 0.0, 1.0, rect, math.sqrt(3.0), 0.0, family_rank=family_rank)
    delta = eigenvalue_of(family, nu, rect)
    scaled, s = _norm_scaled(family, nu, rect)
    return SteklovMode(family, nu, delta, rect, scaled, s, family_rank=family_rank)


def scale_mode(mode: SteklovMode, L: float):
    """Dilate by L: eigenvalue delta/L, evaluator p -> mode((p/L))."""
    if L <= 0.0:
        raise ValueError(f"dilation factor must be positive, got {L}")

    def evaluator(x: float, y: float) -> float:
        return mode.value(x / L, y / L)

    return mode.delta / L, evaluator


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

# Mode x point entries per kernel call of Spectrum.expand and expand_gradient.
# Bounds their working memory at any point count (128 kB per K x block matrix);
# blocks of 2**12 to 2**16 entries timed fastest at 2**14 for 41-80 modes. A
# block keeps at least 64 points, so per-call overhead stays small at large K.
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class Spectrum:
    """Delta-sorted collection of boundary-normalized modes, constant first."""

    rectangle: Rectangle
    modes: tuple[SteklovMode, ...]
    selection: str
    depth: int  # per-family root depth M, or the retained count for global

    @property
    def nonconstant(self) -> tuple[SteklovMode, ...]:
        return self.modes[1:]

    @cached_property
    def _factor_table(self):
        """The 2K one-dimensional factors of the nonconstant modes, for _factors.

        Mode j+1 is Fx_j(x) * Fy_j(y). Along its hyperbolic axis a family mode
        has the factor norm_scaled * cosh_or_sinh_scaled(nu * u), along the
        other cos or sin(nu * v); xy is norm * x times y ("linear", nu = 1).
        The factors are sorted by kind. Returns (axis, nu, groups, rows):
        axis (0 for x, 1 for y) and the (2K, 1) column nu per factor; groups
        of (kind, slice, nu, coef, hyp_scale) per kind; and rows, the (2, K)
        positions of every mode's x- and y-factor.
        """
        factors = []
        for j, md in enumerate(self.nonconstant):
            if md.family is FamilyTag.XY:
                factors += [("linear", 0, 1.0, md.norm_scaled, 0.0, j), ("linear", 1, 1.0, 1.0, 0.0, j)]
                continue
            info = _FAMILIES[md.family]
            hyp_axis = 0 if info.hyp_axis == "x" else 1
            factors += [
                (info.hyp, hyp_axis, md.nu, md.norm_scaled, md.hyp_scale, j),
                (info.trig, 1 - hyp_axis, md.nu, 1.0, 0.0, j),
            ]
        factors.sort(key=lambda f: f[0])
        column = lambda i: np.array([f[i] for f in factors], dtype=float).reshape(-1, 1)
        nu, coef, scale = column(2), column(3), column(4)
        groups, start = [], 0
        for kind in sorted({f[0] for f in factors}):
            s = slice(start, start + sum(f[0] == kind for f in factors))
            groups.append((kind, s, nu[s], coef[s], scale[s]))
            start = s.stop
        rows = np.zeros((2, len(self.modes) - 1), dtype=int)
        for i, f in enumerate(factors):
            rows[f[1], f[5]] = i
        return np.array([f[1] for f in factors], dtype=int), nu, groups, rows

    def _factors(self, x, y, derivative: bool = False):
        """((Fx, Fy), (dFx, dFy)): the separable factors of the nonconstant modes.

        x and y are 1-D arrays of n coordinates each. Fx is the (K, n) matrix
        of the factors along x at x, Fy that along y at y, so mode j+1 at
        (x_i, y_i) is Fx[j, i] * Fy[j, i]; the derivatives are None unless
        derivative is set. The hyperbolic factors carry the norm and the
        exp(-nu*aH) scaling.
        """
        axis, nu_all, groups, rows = self._factor_table
        # every step runs in place where it can: large temporaries cost page faults
        f = np.stack((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))[axis]
        f *= nu_all
        df = np.empty_like(f) if derivative else None
        for kind, s, nu, coef, scale in groups:
            z = f[s]
            if kind == "linear":
                if derivative:
                    df[s] = coef
                z *= coef
            elif kind == "cos":
                if derivative:
                    np.multiply(-nu, np.sin(z), out=df[s])
                np.cos(z, out=z)
            elif kind == "sin":
                if derivative:
                    np.multiply(nu, np.cos(z), out=df[s])
                np.sin(z, out=z)
            else:
                az = np.abs(z)
                half = 0.5 * np.exp(az - scale)
                az *= -2.0
                cosh = half * (1.0 + np.exp(az)) if kind == "cosh" or derivative else None
                sinh = np.sign(z) * half * (-np.expm1(az)) if kind == "sinh" or derivative else None
                hyp, dhyp = (cosh, sinh) if kind == "cosh" else (sinh, cosh)
                if derivative:
                    np.multiply(coef * nu, dhyp, out=df[s])
                np.multiply(coef, hyp, out=z)
        return (f[rows[0]], f[rows[1]]), ((df[rows[0]], df[rows[1]]) if derivative else None)

    def values(self, x, y) -> np.ndarray:
        """The nonconstant modes at N points: a (K, N) matrix, row j for mode j+1.

        x and y are 1-D arrays of N coordinates (no domain check); the matrix
        is the product of the two factor matrices of _factors.
        """
        (fx, fy), _ = self._factors(x, y)
        fx *= fy
        return fx

    def _blocked(self, count: int, terms, x, y):
        """terms(xb, yb), a tuple of `count` arrays, over blocks of the points.

        x and y broadcast together; a block holds _BLOCK_ENTRIES // K points,
        at least 64. Returns floats at one point (scalar x and y), else arrays
        of the broadcast shape.
        """
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            return tuple(float(part[0]) for part in terms(np.array([x], dtype=float), np.array([y], dtype=float)))
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        shape = x.shape
        x, y = x.ravel(), y.ravel()
        out = np.empty((count, x.size))
        step = max(64, _BLOCK_ENTRIES // max(1, len(self.modes) - 1))
        for start in range(0, x.size, step):
            block = slice(start, start + step)
            out[:, block] = terms(x[block], y[block])
        return tuple(out.reshape((count,) + shape))

    def expand(self, weights, x, y):
        """sum_j weights[j] * s_j(x, y) over the nonconstant modes.

        x and y broadcast together; a float at one point, an array of the
        broadcast shape otherwise.
        """
        w = np.asarray(weights, dtype=float)
        return self._blocked(1, lambda xb, yb: (w @ self.values(xb, yb),), x, y)[0]

    def expand_gradient(self, weights, x, y):
        """The gradient (d/dx, d/dy) of expand, term by term, at the same points."""
        w = np.asarray(weights, dtype=float)

        def terms(xb, yb):
            (fx, fy), (dfx, dfy) = self._factors(xb, yb, derivative=True)
            dfx *= fy
            fx *= dfy
            return w @ dfx, w @ fx

        return self._blocked(2, terms, x, y)

    def expand_grid(self, weights, xs, ys) -> np.ndarray:
        """expand on the tensor grid of the 1-D axes xs and ys, shape (ny, nx).

        One matrix product of the factor matrices, Fy(ys)^T @ (w * Fx(xs)):
        O(K * (nx + ny)) transcendental evaluations instead of O(K * nx * ny).
        """
        w = np.asarray(weights, dtype=float)
        nx, ny = len(xs), len(ys)
        n = max(nx, ny)
        (fx, fy), _ = self._factors(np.pad(xs, (0, n - nx)), np.pad(ys, (0, n - ny)))
        return fy[:, :ny].T @ (w[:, None] * fx[:, :nx])

    @property
    def max_delta(self) -> float:
        return self.modes[-1].delta if len(self.modes) > 1 else 0.0

    def select(self, m: int) -> "Spectrum":
        """Nested truncation to a shallower depth under the same policy."""
        if self.selection == PER_FAMILY:
            if m > self.depth:
                raise ValueError(f"cannot select M={m} from depth {self.depth}")
            keep = [md for md in self.nonconstant if _pf_selected(md, self.rectangle, m)]
        else:
            count = 8 * m
            if count > len(self.nonconstant):
                raise ValueError(f"cannot select {count} modes from {len(self.nonconstant)}")
            keep = list(self.nonconstant[:count])
        modes = [self.modes[0]] + keep
        modes = [replace(md, index=i) for i, md in enumerate(modes)]
        return Spectrum(self.rectangle, tuple(modes), self.selection, m)


def _class2_slot(mode: SteklovMode) -> int:
    """Slot of a class-II mode on the square: xy first, then F3/F4 roots by depth."""
    if mode.family is FamilyTag.XY:
        return 0
    if mode.family is FamilyTag.F3:
        return 2 * mode.family_rank + 1
    return 2 * mode.family_rank + 2


def _pf_selected(mode: SteklovMode, rect: Rectangle, m: int) -> bool:
    if rect.is_square and family_class(mode.family) == "II":
        return _class2_slot(mode) < 2 * m
    return mode.family_rank < m


def _sorted_with_const(rect: Rectangle, candidates: list[SteklovMode]) -> list[SteklovMode]:
    candidates.sort(key=lambda md: (md.delta, md.family.order, md.nu))
    modes = [make_mode(FamilyTag.CONST, rect)] + candidates
    return [replace(md, index=i) for i, md in enumerate(modes)]


def _candidate_pool(rect: Rectangle, per_family: int, tol: float) -> list[SteklovMode]:
    pool = []
    if rect.is_square and per_family > 0:
        pool.append(make_mode(FamilyTag.XY, rect))
    for family in _FAMILIES:
        for rank, nu in enumerate(find_roots(family, rect, per_family, tol)):
            pool.append(make_mode(family, rect, nu, family_rank=rank))
    return pool


def build_spectrum(
    rect: Rectangle, m: int, selection: str = PER_FAMILY, tol: float = 1e-12
) -> Spectrum:
    """Constant mode plus the per-family or globally smallest eigenpairs.

    Per-family: the first m roots of each family (on the square, xy leads the
    class-II block and the block keeps its 2m slots). Global: the 8m smallest
    eigenvalues over all families merged.
    """
    if m < 1:
        raise ValueError(f"spectrum depth must be >= 1, got {m}")
    if selection == PER_FAMILY:
        pool = _candidate_pool(rect, m, tol)
        keep = [md for md in pool if _pf_selected(md, rect, m)]
        return Spectrum(rect, tuple(_sorted_with_const(rect, keep)), PER_FAMILY, m)
    if selection == GLOBAL_SORTED:
        return build_spectrum_by_count(rect, 8 * m, tol)
    raise ValueError(f"unknown selection policy {selection!r}")


def build_spectrum_by_count(rect: Rectangle, count: int, tol: float = 1e-12) -> Spectrum:
    """Constant mode plus the `count` smallest nonconstant eigenpairs."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    pool = _candidate_pool(rect, count, tol)
    pool.sort(key=lambda md: (md.delta, md.family.order, md.nu))
    keep = pool[:count]
    return Spectrum(rect, tuple(_sorted_with_const(rect, keep)), GLOBAL_SORTED, count)


# ---------------------------------------------------------------------------
# cache file
# ---------------------------------------------------------------------------


def spectrum_to_json(spec: Spectrum) -> str:
    def g17(x: float) -> str:
        return format(x, ".17g")

    rows = ",\n".join(
        '    {"family": "%s", "nu": %s, "delta": %s, "normConst": %s}'
        % (md.family.value, g17(md.nu), g17(md.delta), g17(md.norm_const))
        for md in spec.modes
    )
    return (
        "{\n"
        f'  "h": {g17(spec.rectangle.h)},\n'
        f'  "selection": "{spec.selection}",\n'
        '  "modes": [\n' + rows + "\n  ]\n}\n"
    )


def save_spectrum(spec: Spectrum, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spectrum_to_json(spec))


def spectrum_from_json(text: str, residual_tol: float = 1e-8) -> Spectrum:
    """Rebuild a spectrum from its cache form, revalidating the eigendata."""
    data = json.loads(text)
    rect = Rectangle(float(data["h"]))
    selection = data["selection"]
    if selection not in (PER_FAMILY, GLOBAL_SORTED):
        raise SpectrumError(f"unknown selection policy {selection!r} in cache")

    ranks: dict[FamilyTag, int] = {}
    modes = []
    for i, row in enumerate(data["modes"]):
        family = FamilyTag(row["family"])
        nu = float(row["nu"])
        if i == 0 and family is not FamilyTag.CONST:
            raise SpectrumError("cache must list the constant mode first")
        if family.is_separable:
            resid, scale = char_residual(family, nu, rect)
            if abs(resid) > residual_tol * scale:
                raise SpectrumError(
                    f"cached nu={nu} fails the {family.value} characteristic "
                    f"equation: residual {resid:.3g}"
                )
        rank = ranks.get(family, 0)
        ranks[family] = rank + 1
        mode = make_mode(family, rect, nu, family_rank=rank)
        for name, got in (("delta", float(row["delta"])), ("normConst", float(row["normConst"]))):
            ref = mode.delta if name == "delta" else mode.norm_const
            tol = 1e-12 if name == "delta" else 1e-10
            if ref > 1e-290 and abs(got - ref) > tol * max(1.0, abs(ref)):
                raise SpectrumError(
                    f"cached {name}={got} disagrees with recomputed {ref} "
                    f"for {family.value}, nu={nu}"
                )
        modes.append(replace(mode, index=i))

    depth = max(ranks.values(), default=1)
    return Spectrum(rect, tuple(modes), selection, depth)


def load_spectrum(path, residual_tol: float = 1e-8) -> Spectrum:
    with open(path, encoding="utf-8") as fh:
        return spectrum_from_json(fh.read(), residual_tol)
