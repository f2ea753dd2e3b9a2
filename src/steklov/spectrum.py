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
remain finite in double precision far beyond the overflow of cosh: with 8000
modes at h = 1 (nu up to about 3142) the top mode, F3, still has a trace
close to 2 sin(nu y) on G1, as its normalization implies. The unscaled
normConst = norm_scaled * exp(-nu*aH) underflows to 0.0 at that size (already
at 1000 modes for h = 0.001), so nothing stores it: the cache file holds
family, nu and delta. A cache that lists normConst, as older ones do, has it
checked against the recomputed value wherever that value is representable.

The mode math has one implementation, on numpy arrays indexed by mode.
Branch k of a family brackets one root, so each branch's eigenvalue has
known bounds before anything is solved; only the branches that can hold a
kept mode are solved, all families in one lock-step bisection (plus Newton
polish). Eigenvalues, normalization pairs and characteristic residuals are
computed per element of the same arrays. The public functions of one family,
find_roots and make_mode, are these array forms on one family's branches or
on length-1 arrays; only tests and the benchmark's tracer call them.

A Spectrum is its per-mode arrays (ModeArrays), constant mode first; per-mode
results downstream are arrays aligned with its rows, and sub-spectra are row
subsets (take, head). SteklovMode records (Spectrum.modes) are a view, built
when first read; the package itself never reads them.
A Spectrum evaluates all its nonconstant modes at once from their separable
factors: the (K, N) matrix of values, the weighted expansion and its gradient
at points (in blocks of bounded size), and the expansion on a tensor grid as
one matrix product of the two factor matrices.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Rectangle

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


_FAMILIES: dict[FamilyTag, _FamilyInfo] = {
    FamilyTag.F1: _FamilyInfo("x", "cosh", "cos"),
    FamilyTag.F2: _FamilyInfo("y", "cosh", "cos"),
    FamilyTag.F3: _FamilyInfo("x", "sinh", "sin"),
    FamilyTag.F4: _FamilyInfo("y", "sinh", "sin"),
    FamilyTag.F5: _FamilyInfo("x", "cosh", "sin"),
    FamilyTag.F6: _FamilyInfo("y", "sinh", "cos"),
    FamilyTag.F7: _FamilyInfo("x", "sinh", "cos"),
    FamilyTag.F8: _FamilyInfo("y", "cosh", "sin"),
}


# ---------------------------------------------------------------------------
# array forms: the branches of all families at once
# ---------------------------------------------------------------------------

# Per-mode arrays name the family by its code, FamilyTag.order (CONST 0, XY 1,
# F1..F8 2..9). These tables give each code's profile; CONST and XY read False.
_TAGS = tuple(FamilyTag)
_CODE = {tag: code for code, tag in enumerate(_TAGS)}
_XY, _F3, _F4 = _CODE[FamilyTag.XY], _CODE[FamilyTag.F3], _CODE[FamilyTag.F4]


def _per_code(prop) -> np.ndarray:
    return np.array([tag in _FAMILIES and prop(_FAMILIES[tag]) for tag in _TAGS])


_HYP_X = _per_code(lambda info: info.hyp_axis == "x")
_COSH = _per_code(lambda info: info.hyp == "cosh")
_COS = _per_code(lambda info: info.trig == "cos")
# the characteristic function: tan(theta) (else cot) plus _SIGN * tanh
_TAN = _COS == _COSH
_SIGN = np.where(_COS, 1.0, -1.0)

# Branch k of a family brackets one root in the local variable
# theta = nu*aT - k*pi, where the periodic factor is evaluated without
# large-argument trig reduction. Per profile (trig, hyp): the bracket
# [lo, hi] in theta and the first k. A sin/sinh family has one extra low
# branch, k = 0 from theta = _TINY_THETA, when its trigonometric axis is the
# shorter one (F3 for h < 1).
_QP = 0.25 * math.pi
_HP = 0.5 * math.pi
_BRACKETS = {
    ("cos", "cosh"): (-_QP, 0.0, 1),  # tan(theta) = -tanh
    ("cos", "sinh"): (-_HP, -_QP, 1),  # cot(theta) = -tanh
    ("sin", "cosh"): (_QP, _HP, 0),  # cot(theta) = tanh
    ("sin", "sinh"): (0.0, _QP, 1),  # tan(theta) = tanh
}
_LO, _HI, _K_START = np.array(
    [_BRACKETS[_FAMILIES[tag].trig, _FAMILIES[tag].hyp] if tag in _FAMILIES else (0.0, 0.0, 0) for tag in _TAGS]
).T
_EXTRA = _per_code(lambda info: (info.trig, info.hyp) == ("sin", "sinh"))
_TINY_THETA = 1e-9
_ENDPOINT_RTOL = 100.0 * 2.220446049250313e-16  # residual at rounding level, per unit f'

# The kinds of one-dimensional factors, in the order _factor_plan sorts them,
# and per code the kind of the hyperbolic factor, on axis _HYP_AXIS (0 for x,
# 1 for y), and of the other one; xy is linear along x and along y. The plan
# groups them in three spans, each evaluated in one pass by _apply_kinds:
# trig (cos, sin), hyp (cosh, sinh) and linear.
_KINDS = ("cos", "sin", "cosh", "sinh", "linear")
_SPANS = (("trig", 0, 2), ("hyp", 2, 4), ("linear", 4, 5))  # (span, first, end) as indices of _KINDS
_HYP_KIND = np.array([_KINDS.index(_FAMILIES[tag].hyp if tag in _FAMILIES else "linear") for tag in _TAGS])
_TRIG_KIND = np.array([_KINDS.index(_FAMILIES[tag].trig if tag in _FAMILIES else "linear") for tag in _TAGS])
_HYP_AXIS = np.array([int(tag in _FAMILIES and _FAMILIES[tag].hyp_axis == "y") for tag in _TAGS])
# Per code, whether its factor along x (column 0) and along y (column 1) is
# odd: sin, sinh and linear are, cos and cosh are not. The constant is even
# along both axes, xy odd along both. A mode is odd under the point
# reflection p -> -p (classes III and IV) when it is odd along one axis only.
_ODD_ALONG = np.isin(
    np.where(_HYP_AXIS[:, None] == np.arange(2), _HYP_KIND[:, None], _TRIG_KIND[:, None]),
    [_KINDS.index(kind) for kind in ("sin", "sinh", "linear")],
)
_ODD_ALONG[_CODE[FamilyTag.CONST]] = False


def _extents(code: np.ndarray, rect: Rectangle):
    """(aT, aH) per element: the half-extents of the trigonometric and
    hyperbolic axes of each code's profile."""
    hyp_x = _HYP_X[code]
    return np.where(hyp_x, rect.h, 1.0), np.where(hyp_x, 1.0, rect.h)


def _eigenvalues(code: np.ndarray, nu: np.ndarray, rect: Rectangle) -> np.ndarray:
    """The eigenvalues nu*tanh(nu*aH) (cosh profiles) or nu*coth(nu*aH) (sinh
    profiles) of arrays of separable codes and frequencies."""
    t = np.tanh(nu * _extents(code, rect)[1])
    return np.where(_COSH[code], nu * t, nu / t)


# 1 / (2k + 3)! for k = 6, ..., 0: with z = x^2, 1 - sin(x)/x is
# z * P(-z) and sinh(x) - x is x * z * P(z) for the polynomial P of these
# coefficients, to within 1e-17 relative for |x| < _SERIES_MAX.
_SERIES = np.array([1.0 / math.factorial(2 * k + 3) for k in range(6, -1, -1)])
_SERIES_MAX = 0.5


def _norms_scaled(code: np.ndarray, nu: np.ndarray, rect: Rectangle):
    """The stable normalization pairs: the arrays normConst * exp(nu*aH) and nu*aH.

    normConst makes the boundary square integral of the mode equal to the
    perimeter. The hyperbolic edge value and square integral are taken with
    exp(nu*aH) factored out. Where they cancel, 1 - sin(x)/x (x = 2*nu*aT)
    and the scaled sinh square integral exp(-2s) * (sinh(2s) - 2s) / (2*nu)
    (s = nu*aH) are their Horner series, for |x| < 0.5 and 2s < 0.5; the
    table spectra (h in {1, 0.8, 0.5}) have x >= 1.03 and 2s >= 1.1.
    """
    a_t, a_h = _extents(code, rect)
    cosh, cos = _COSH[code], _COS[code]
    s = nu * a_h
    e2 = np.exp(-2.0 * s)
    tail = -np.expm1(-4.0 * s) / (4.0 * nu)
    hyp_edge = 0.5 * np.where(cosh, 1.0 + e2, -np.expm1(-2.0 * s))
    r = nu * a_t
    x = 2.0 * r
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # only in values np.where discards
        z = 4.0 * s * s
        sinh_series = a_h * e2 * z * np.polyval(_SERIES, z)
        z = x * x
        one_minus_sinc = np.where(np.abs(x) < _SERIES_MAX, z * np.polyval(_SERIES, -z), 1.0 - np.sin(x) / x)
    hyp_int = np.where(cosh, a_h * e2 + tail, np.where(2.0 * s < _SERIES_MAX, sinh_series, -a_h * e2 + tail))
    trig_edge = np.where(cos, np.cos(r), np.sin(r))
    trig_int = np.where(cos, 2.0 * a_t - a_t * one_minus_sinc, a_t * one_minus_sinc)

    scaled_integral = 2.0 * (hyp_edge * hyp_edge * trig_int + trig_edge * trig_edge * hyp_int)
    bad = np.flatnonzero(~(scaled_integral > 0.0))
    if bad.size:
        i = bad[0]
        raise SpectrumError(
            f"nonpositive boundary square integral for {_TAGS[code[i]].value}, nu={nu[i]}: "
            f"{scaled_integral[i]}"
        )
    return np.sqrt(rect.perimeter / scaled_integral), s


def _char_arrays(theta, k_pi, a_t, a_h, tan, sign, derivative: bool = False):
    """The characteristic function on branch k at local angle theta, per
    element: f, or (f, f') with derivative.

    f is the periodic factor, tan(theta) where tan is set and cot(theta)
    elsewhere, plus sign * tanh(nu*aH), with nu = (k*pi + theta) / aT and
    k_pi = k*pi; f' is its derivative in theta.
    """
    nu = (k_pi + theta) / a_t
    th = np.tanh(nu * a_h)
    p = np.tan(theta)
    np.divide(1.0, p, out=p, where=~tan)
    f = p + sign * th
    if not derivative:
        return f
    dp = 1.0 + p * p
    return f, np.where(tan, dp, -dp) + sign * (1.0 - th * th) * a_h / a_t


def _char_residuals(code: np.ndarray, nu: np.ndarray, rect: Rectangle):
    """The arrays of residuals f and derivative scales max(1, |f'|) of the
    characteristic equation at the frequencies nu, each on its nearest branch."""
    a_t, a_h = _extents(code, rect)
    r = nu * a_t
    k_pi = np.floor(r / math.pi + 0.5) * math.pi
    fval, fder = _char_arrays(r - k_pi, k_pi, a_t, a_h, _TAN[code], _SIGN[code], derivative=True)
    return fval, np.maximum(1.0, np.abs(fder))


def _branch_table(rect: Rectangle, counts):
    """(code, rank, k, lo, hi): the first counts[c] branches of each family code c.

    The branches of find_roots, family after family: rank is the root's
    ordinal within its family, [lo, hi] its bracket in theta on branch k.
    """
    counts = np.asarray(counts, dtype=int)
    code = np.repeat(np.arange(len(_TAGS)), counts)
    rank = np.arange(code.size) - np.repeat(np.cumsum(counts) - counts, counts)
    a_t, a_h = _extents(code, rect)
    extra = _EXTRA[code] & (a_t < a_h)
    k = _K_START[code].astype(int) + rank - extra.astype(int)
    return code, rank, k, np.where(extra & (rank == 0), _TINY_THETA, _LO[code]), _HI[code]


def _solve_branches(code, k, lo, hi, rect: Rectangle, tol: float) -> np.ndarray:
    """The root on every branch of _branch_table, all branches in lock-step.

    Each branch keeps its bracket end when that end's residual is at rounding
    level (both ends of the same sign is an error otherwise), or bisects until
    the bracket is at most tol * aT wide in theta, then takes at most 3
    Newton steps that stay in the bracket and shrink |f|.
    """
    if tol < 1e-14:
        raise ValueError(f"tol must be >= 1e-14, got {tol}")
    a_t, a_h = _extents(code, rect)
    k_pi = k * math.pi
    tan, sign = _TAN[code], _SIGN[code]

    def char(theta, derivative=False):
        return _char_arrays(theta, k_pi, a_t, a_h, tan, sign, derivative)

    def fail(i, detail):
        bracket = ((k_pi[i] + lo[i]) / a_t[i], (k_pi[i] + hi[i]) / a_t[i])
        return RootFindError(_TAGS[code[i]], int(k[i]), bracket, detail)

    flo, dlo = char(lo, True)
    fhi, dhi = char(hi, True)
    # For large nu the tanh factor saturates and the root sits within an ulp
    # of a bracket end; an end whose residual is at rounding level is the root.
    same = flo * fhi > 0.0
    at_lo = (flo == 0.0) | (same & (np.abs(flo) <= _ENDPOINT_RTOL * np.maximum(1.0, np.abs(dlo))))
    at_hi = ~at_lo & ((fhi == 0.0) | (same & (np.abs(fhi) <= _ENDPOINT_RTOL * np.maximum(1.0, np.abs(dhi)))))
    done = at_lo | at_hi
    stray = np.flatnonzero(same & ~done)
    if stray.size:
        i = stray[0]
        raise fail(i, f"f(ends) = ({flo[i]:.3g}, {fhi[i]:.3g})")

    end = np.where(at_lo, lo, hi)
    a, b, fa = np.where(done, end, lo), np.where(done, end, hi), flo
    theta_tol = tol * a_t
    for _ in range(250):
        live = b - a > theta_tol
        if not live.any():
            break
        mid = 0.5 * (a + b)
        fm = char(mid)
        left = fa * fm < 0.0
        b = np.where(live & (left | (fm == 0.0)), mid, b)
        up = live & ~left
        a, fa = np.where(up, mid, a), np.where(up, fm, fa)
    else:
        raise fail(np.flatnonzero(b - a > theta_tol)[0], "bisection iteration cap reached")

    theta = 0.5 * (a + b)
    fval, fder = char(theta, True)
    polish = ~done
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            cand = theta - fval / fder
            polish &= (fder != 0.0) & (lo <= cand) & (cand <= hi)
            if not polish.any():
                break
            cval, cder = char(cand, True)
            polish &= np.abs(cval) < np.abs(fval)
            theta, fval, fder = (np.where(polish, new, old) for new, old in ((cand, theta), (cval, fval), (cder, fder)))
    return (k_pi + theta) / a_t


# ---------------------------------------------------------------------------
# public eigendata of one family: the array forms above on its branches or on
# length-1 arrays
# ---------------------------------------------------------------------------


# Kept for the benchmark, whose tracer wraps it by name.
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
    code, _, k, lo, hi = _branch_table(rect, [count if tag is family else 0 for tag in _TAGS])
    return _solve_branches(code, k, lo, hi, rect, tol).tolist()


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


# Kept for the benchmark, which reads nu and delta from Spectrum.modes.
@dataclass(frozen=True)
class SteklovMode:
    """One boundary-normalized eigenpair: the record of its family, frequency,
    eigenvalue and normalization. Spectrum evaluates its modes."""

    family: FamilyTag
    nu: float
    delta: float
    rect: Rectangle
    norm_scaled: float  # normConst * exp(hyp_scale)
    hyp_scale: float  # nu * aH (0 for const/xy)
    index: int = -1  # position in the delta-sorted spectrum
    family_rank: int = 0  # root ordinal within the family

    @property
    def key(self) -> tuple[str, float]:
        return (self.family.value, self.nu)


# Kept for the benchmark, whose tracer wraps it by name.
def make_mode(family: FamilyTag, rect: Rectangle, nu: float = 0.0, family_rank: int = 0) -> SteklovMode:
    if family is FamilyTag.CONST:
        return SteklovMode(family, 0.0, 0.0, rect, 1.0, 0.0, family_rank=family_rank)
    if family is FamilyTag.XY:
        if not rect.is_square:
            raise SpectrumError("the xy mode exists only on the square (h = 1)")
        return SteklovMode(family, 0.0, 1.0, rect, math.sqrt(3.0), 0.0, family_rank=family_rank)
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    code, nus = np.array([_CODE[family]]), np.array([float(nu)])
    scaled, s = _norms_scaled(code, nus, rect)
    delta = _eigenvalues(code, nus, rect)[0]
    return SteklovMode(family, nu, float(delta), rect, float(scaled[0]), float(s[0]), family_rank=family_rank)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

# Mode x point entries per kernel call of Spectrum.expand and expand_gradient.
# Bounds their working memory at any point count (128 kB per K x block matrix).
# Blocks of 2**12 to 2**16 entries, 80 modes, 2 vCPUs: expand at 1e5 points
# took 222, 191, 172, 161 and 331 ms, expand_gradient at 4e4 points 115, 102,
# 93, 193 and 256 ms (41 modes: the same order, 2**14 and 2**15 tied on
# expand). A block keeps at least 64 points, so per-call overhead stays small
# at large K.
_BLOCK_ENTRIES = 1 << 14


class ModeArrays(NamedTuple):
    """The modes of a spectrum as per-mode arrays, constant first."""

    code: np.ndarray  # family code, FamilyTag.order
    nu: np.ndarray
    delta: np.ndarray
    norm_scaled: np.ndarray
    hyp_scale: np.ndarray
    rank: np.ndarray  # family_rank

    @property
    def keys(self) -> np.ndarray:
        """(family, nu) of each mode as the complex number code + i*nu; numpy
        sorts and searches complex arrays by real part, then imaginary part."""
        return self.code + 1j * self.nu


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Delta-sorted boundary-normalized modes, constant first, as per-mode arrays.

    modes is a view of the arrays as SteklovMode records (index = row), built when first read.
    """

    rectangle: Rectangle
    arrays: ModeArrays = field(repr=False)
    selection: str
    depth: int  # per-family root depth M, or the retained count for global

    @property
    def size(self) -> int:
        """The number of modes, the constant included."""
        return self.arrays.code.size

    # Kept for the benchmark: its cache check and its tracer read the records.
    @cached_property
    def modes(self) -> tuple[SteklovMode, ...]:
        rect = self.rectangle
        return tuple(
            SteklovMode(_TAGS[code], nu, delta, rect, norm, scale, i, rank)
            for i, (code, nu, delta, norm, scale, rank) in enumerate(zip(*(a.tolist() for a in self.arrays)))
        )

    def family(self, row: int) -> FamilyTag:
        """The family of the mode in the given row."""
        return _TAGS[self.arrays.code[row]]

    def take(self, rows, depth: int | None = None) -> "Spectrum":
        """The modes in rows (indices or a slice; row 0 is the constant) as a
        spectrum of the same selection, of this depth unless depth is given."""
        arrays = ModeArrays(*(a[rows] for a in self.arrays))
        return Spectrum(self.rectangle, arrays, self.selection, self.depth if depth is None else depth)

    def rows_of(self, sub: "Spectrum") -> np.ndarray:
        """The rows of this spectrum that hold the modes of sub, in sub's order.

        Each mode is found by its (family, nu); a mode of sub that is not
        here raises ValueError.
        """
        keys, want = self.arrays.keys, sub.arrays.keys
        order = np.argsort(keys)
        rows = order[np.minimum(np.searchsorted(keys, want, sorter=order), keys.size - 1)]
        missing = np.flatnonzero(keys[rows] != want)
        if missing.size:
            i = missing[0]
            raise ValueError(f"mode {sub.family(i).value}, nu={float(sub.arrays.nu[i])!r} is not in the coefficients' spectrum")
        return rows

    def head(self, count: int) -> "Spectrum":
        """The constant and the first `count` nonconstant modes: a global
        prefix of depth count."""
        if not 0 <= count < self.size:
            raise ValueError(f"cannot take {count} modes from {self.size - 1}")
        return Spectrum(self.rectangle, self.take(slice(0, count + 1)).arrays, GLOBAL_SORTED, count)

    @cached_property
    def _factor_table(self):
        """_factor_plan of both axes, for _factors."""
        return _factor_plan(self.arrays)

    @cached_property
    def _axis_tables(self):
        """_factor_plan of the x axis alone, and of the y axis alone."""
        return _factor_plan(self.arrays, 0), _factor_plan(self.arrays, 1)

    def _factors(self, x, y, derivative: bool = False):
        """((Fx, Fy), (dFx, dFy)): the separable factors of the nonconstant modes.

        x and y are 1-D arrays. Fx is the (K, len(x)) matrix of the factors
        along x at x, Fy the (K, len(y)) one along y at y, so mode j+1 at
        (x_i, y_i) is Fx[j, i] * Fy[j, i]; the derivatives are None unless
        derivative is set. The hyperbolic factors carry the norm and the
        exp(-nu*aH) scaling. With len(x) == len(y) both axes are evaluated in
        one pass over the factor kinds; otherwise each axis on its own points,
        so a length-1 axis (a side's constant coordinate) is evaluated once.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.size == y.size:
            axis, arg, spans, rows = self._factor_table
            # every step runs in place where it can: large temporaries cost page faults
            f = np.array((x, y))[axis]  # np.stack costs a few microseconds more per call
            f *= arg
            df = _apply_kinds(f, spans, derivative)
            pick = lambda m: (m[rows[0]], m[rows[1]])
            return pick(f), (pick(df) if derivative else None)
        factors = []
        for along, coord in enumerate((x, y)):
            _, arg, spans, rows = self._axis_tables[along]
            f = arg * coord
            df = _apply_kinds(f, spans, derivative)
            factors.append((f[rows[along]], df[rows[along]] if derivative else None))
        (fx, dfx), (fy, dfy) = factors
        return (fx, fy), ((dfx, dfy) if derivative else None)

    def values(self, x, y) -> np.ndarray:
        """The nonconstant modes at N points: a (K, N) matrix, row j for mode j+1.

        x and y are 1-D arrays of N coordinates, or one of them a single
        coordinate for all N points (no domain check); the matrix is the
        product of the two factor matrices of _factors.
        """
        (fx, fy), _ = self._factors(x, y)
        if fx.shape[1] < fy.shape[1]:
            fx, fy = fy, fx
        fx *= fy
        return fx

    def _own_values(self, x, y) -> np.ndarray:
        """Each nonconstant mode at points of its own.

        x and y are (K, m) arrays; entry (j, i) of the (K, m) result is mode
        j+1 at (x[j, i], y[j, i]), from the factors of _factors.
        """
        axis, arg, spans, rows = self._factor_table
        mode = np.empty(axis.size, dtype=int)
        mode[rows] = np.arange(rows.shape[1])  # the mode of each factor row
        f = np.stack((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))[axis, mode] * arg
        _apply_kinds(f, spans, False)
        return f[rows[0]] * f[rows[1]]

    def _blocked(self, count: int, terms, x, y):
        """terms(xb, yb), `count` rows of values, over blocks of the points.

        x and y broadcast together; a block holds _BLOCK_ENTRIES // K points,
        at least 64. A coordinate of size 1, shared by all points (a side's
        fixed coordinate), is passed to every block as it is, so that
        _factors evaluates its factors once. Returns `count` floats at one
        point (scalar x and y), else `count` arrays of the broadcast shape.
        """
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            return tuple(float(part[0]) for part in terms(np.array([x], dtype=float), np.array([y], dtype=float)))
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        x, y = (c.ravel() if c.size == 1 else np.broadcast_to(c, shape).ravel() for c in (x, y))
        n = max(x.size, y.size)
        out = np.empty((count, n))
        step = max(64, _BLOCK_ENTRIES // max(1, self.size - 1))
        for start in range(0, n, step):
            block = slice(start, start + step)
            out[:, block] = terms(x if x.size == 1 else x[block], y if y.size == 1 else y[block])
        return tuple(out.reshape((count,) + shape))

    def expand(self, weights, x, y):
        """sum_j weights[j] * s_j(x, y) over the nonconstant modes.

        x and y broadcast together; a float at one point, an array of the
        broadcast shape otherwise. An (m, K) stack of weights gives the m
        sums from one evaluation of the modes, an array of shape (m,) plus
        the broadcast shape.
        """
        w = np.asarray(weights, dtype=float)
        if w.ndim == 1:
            return self._blocked(1, lambda xb, yb: (w @ self.values(xb, yb),), x, y)[0]
        return np.array(self._blocked(len(w), lambda xb, yb: w @ self.values(xb, yb), x, y))

    def expand_gradient(self, weights, x, y):
        """The gradient (d/dx, d/dy) of expand, term by term, at the same points."""
        w = np.asarray(weights, dtype=float)

        def terms(xb, yb):
            xb, yb = np.broadcast_arrays(xb, yb)  # the in-place products need equal shapes
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
        (fx, fy), _ = self._factors(xs, ys)
        return fy.T @ (w[:, None] * fx)

    def select(self, m: int) -> "Spectrum":
        """Nested truncation to a shallower depth under the same policy.

        Per family: the first m roots of each family, depth m. Global: the
        8m smallest nonconstant modes, depth 8m.
        """
        if self.selection != PER_FAMILY:
            return self.head(8 * m)
        if m > self.depth:
            raise ValueError(f"cannot select M={m} from depth {self.depth}")
        return self.take(np.flatnonzero(_per_family_kept(self.arrays.code, self.arrays.rank, self.rectangle, m)), m)


def _factor_plan(arrays: ModeArrays, along: int | None = None):
    """How _factors evaluates the one-dimensional factors of nonconstant modes.

    Mode j+1 is Fx_j(x) * Fy_j(y). Along its hyperbolic axis a family mode
    has the factor norm_scaled * cosh_or_sinh_scaled(nu * u), along the other
    cos or sin(nu * v); xy is norm * x times y ("linear", nu = 1). The plan
    covers the factors along the axis `along` (0 for x, 1 for y), or along
    both for None, sorted by kind: cos, sin, cosh, sinh, linear.

    Returns (axis, arg, spans, rows). Per factor, axis is its axis and arg the
    column that multiplies the coordinate: nu / 2 on trig rows (the half
    angle _apply_kinds takes the tangent of), nu on hyperbolic rows, 1 on
    linear rows. spans holds one (kind, slice, split, coef, dcoef, hyp_scale)
    per nonempty span ("trig", "hyp" or "linear"): split is the number of
    its cos or cosh rows, which come first; coef multiplies the factor
    (norm_scaled on hyperbolic rows, else 1) and dcoef its derivative
    (-nu on cos, nu on sin and coef * nu on the other rows). rows[a, j] is
    the position of mode j+1's factor along axis a.
    """
    code = arrays.code[1:]
    n = code.size
    kind, axis = np.empty(2 * n, dtype=int), np.empty(2 * n, dtype=int)
    kind[0::2], kind[1::2] = _HYP_KIND[code], _TRIG_KIND[code]
    axis[0::2] = _HYP_AXIS[code]
    axis[1::2] = 1 - axis[0::2]
    nu = np.repeat(np.where(code == _XY, 1.0, arrays.nu[1:]), 2)
    coef, scale = np.ones(2 * n), np.zeros(2 * n)
    coef[0::2], scale[0::2] = arrays.norm_scaled[1:], arrays.hyp_scale[1:]
    index = np.arange(2 * n) if along is None else np.flatnonzero(axis == along)
    order = index[np.argsort(kind[index], kind="stable")]
    kind, axis, nu, coef, scale = kind[order], axis[order], nu[order, None], coef[order, None], scale[order, None]
    rows = np.zeros((2, n), dtype=int)
    rows[axis, order // 2] = np.arange(order.size)
    dcoef = np.where(kind[:, None] == _KINDS.index("cos"), -1.0, 1.0) * coef * nu
    arg = np.where(kind[:, None] <= _KINDS.index("sin"), 0.5 * nu, nu)
    edges = np.searchsorted(kind, np.arange(len(_KINDS) + 1)).tolist()
    spans = [
        (name, slice(edges[first], edges[end]), edges[first + 1] - edges[first])
        + tuple(c[edges[first] : edges[end]] for c in (coef, dcoef, scale))
        for name, first, end in _SPANS
        if edges[end] > edges[first]
    ]
    return axis, arg, spans, rows


def _apply_kinds(z: np.ndarray, spans, derivative: bool):
    """Turn z = arg * coordinate into the factors, in place, span by span.

    Each span of _factor_plan is evaluated in one pass. Trig rows hold the
    half angle theta / 2: with t = tan(theta / 2) and r = 2 / (1 + t^2),
    cos(theta) = r - 1 and sin(theta) = t * r, so one vectorised tangent
    gives both (numpy's float64 sin and cos are scalar libm calls, an order
    of magnitude slower). Against np.cos and np.sin of the same theta the
    factors are within 4.5e-16 absolute (2 ulp of 1) on 8000-mode spectra,
    where theta reaches about 3142 at h = 1 and 6300 at h = 0.001, and sin
    within 4.5e-16 relative for |theta| <= 1e-3; near the other zeros of
    cos and sin only the absolute bound holds. Hyperbolic rows, cosh and
    sinh scaled by exp(-hyp_scale), share |v|, exp(|v| - hyp_scale) and
    -2|v|. Returns the derivatives of the factors, or None without derivative.
    """
    dz = np.empty_like(z) if derivative else None
    for kind, s, split, coef, dcoef, scale in spans:
        v = z[s]
        d = dz[s] if derivative else None
        if kind == "trig":
            np.tan(v, out=v)
            r = np.multiply(v, v)
            r += 1.0
            np.divide(2.0, r, out=r)
            v *= r  # sin(theta) on every row
            head = slice(None, split)
            if derivative:  # -nu sin on the cos rows, nu cos on the sin rows
                d[head] = v[head]
                np.subtract(r[split:], 1.0, out=d[split:])
                d *= dcoef
            np.subtract(r[head], 1.0, out=v[head])  # cos(theta) on the cos rows
        elif kind == "hyp":
            # sinh = -sign(v) * (half * expm1(av)) and cosh = half * (exp(av) + 1),
            # each rounded as its formula (sign changes are exact), in place:
            # every full-size temporary costs page faults
            av = np.abs(v)
            half = np.subtract(av, scale)
            np.exp(half, out=half)
            half *= 0.5
            av *= -2.0
            np.sign(v, out=v)  # only the sign of v is used from here on
            if derivative:
                sinh = np.expm1(av)
                sinh *= half
                sinh *= v
                np.negative(sinh, out=sinh)
                cosh = np.exp(av, out=av)
                cosh += 1.0
                cosh *= half
                np.multiply(dcoef[:split], sinh[:split], out=d[:split])
                np.multiply(dcoef[split:], cosh[split:], out=d[split:])
                cosh[split:] = sinh[split:]  # the factors: cosh rows, then sinh rows
            else:  # each row needs only its own function, computed in av
                cosh, sinh = av[:split], av[split:]
                np.expm1(sinh, out=sinh)
                sinh *= half[split:]
                sinh *= v[split:]
                np.negative(sinh, out=sinh)
                np.exp(cosh, out=cosh)
                cosh += 1.0
                cosh *= half[:split]
            np.multiply(coef, av, out=v)
        else:
            if derivative:
                d[...] = dcoef
            v *= coef
    return dz


def _per_family_kept(code: np.ndarray, rank: np.ndarray, rect: Rectangle, m: int) -> np.ndarray:
    """Mask of the modes a per-family truncation to depth m keeps.

    The first m roots of each family. On the square, xy leads the class-II
    block, whose slots are xy, then F3 and F4 roots alternating by rank, and
    the block keeps 2m slots (so m F3 roots and m - 1 F4 roots).
    """
    if not rect.is_square:
        return rank < m
    slot = np.where(code == _F3, 2 * rank + 1, np.where(code == _F4, 2 * rank + 2, 0))
    class2 = (code == _XY) | (code == _F3) | (code == _F4)
    return np.where(class2, slot < 2 * m, rank < m)


def _spectrum_of_roots(rect: Rectangle, code, rank, nu, with_xy: bool, keep: int | None, selection: str, depth: int) -> Spectrum:
    """The constant mode, then the `keep` smallest of the given roots (and of
    xy, with with_xy; all of them for keep None) in (delta, family order, nu)
    order."""
    columns = [code, nu, _eigenvalues(code, nu, rect), *_norms_scaled(code, nu, rect), rank]
    if with_xy:
        columns = [np.append(c, v) for c, v in zip(columns, (_XY, 0.0, 1.0, math.sqrt(3.0), 0.0, 0))]
    code, nu, delta = columns[:3]
    order = np.lexsort((nu, code, delta))[:keep]
    const = (_CODE[FamilyTag.CONST], 0.0, 0.0, 1.0, 0.0, 0)
    arrays = ModeArrays(*(np.concatenate(([v], c[order])) for v, c in zip(const, columns)))
    return Spectrum(rect, arrays, selection, depth)


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
        counts = [m if tag in _FAMILIES else 0 for tag in _TAGS]
        code, rank, k, lo, hi = _branch_table(rect, counts)
        kept = _per_family_kept(code, rank, rect, m)
        code, rank, k, lo, hi = (c[kept] for c in (code, rank, k, lo, hi))
        nu = _solve_branches(code, k, lo, hi, rect, tol)
        return _spectrum_of_roots(rect, code, rank, nu, rect.is_square, None, PER_FAMILY, m)
    if selection == GLOBAL_SORTED:
        return build_spectrum_by_count(rect, 8 * m, tol)
    raise ValueError(f"unknown selection policy {selection!r}")


def build_spectrum_by_count(rect: Rectangle, count: int, tol: float = 1e-12) -> Spectrum:
    """Constant mode plus the `count` smallest nonconstant eigenpairs.

    Only the branches that can hold one of them are solved. The root of
    branch k lies in a known bracket and delta increases with nu, so the
    branch's eigenvalue has known bounds. Let U be the count-th smallest
    upper bound over the first `count` branches of every family (and xy,
    delta = 1, on the square): at least `count` modes have delta <= U, so a
    branch whose lower bound exceeds U holds none of the kept ones.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    with_xy = rect.is_square and count > 0
    code, rank, k, lo, hi = _branch_table(rect, [count if tag in _FAMILIES else 0 for tag in _TAGS])
    if count:
        a_t = _extents(code, rect)[0]
        lower, upper = (_eigenvalues(code, (k * math.pi + theta) / a_t, rect) for theta in (lo, hi))
        cutoff = np.partition(np.append(upper, 1.0) if with_xy else upper, count - 1)[count - 1]
        # the slack covers rounding in the bounds; it adds a root only on a near tie
        solve = lower <= cutoff * (1.0 + 1e-12)
        code, rank, k, lo, hi = (c[solve] for c in (code, rank, k, lo, hi))
    nu = _solve_branches(code, k, lo, hi, rect, tol)
    return _spectrum_of_roots(rect, code, rank, nu, with_xy, count, GLOBAL_SORTED, count)


# ---------------------------------------------------------------------------
# cache file
# ---------------------------------------------------------------------------


def spectrum_to_json(spec: Spectrum) -> str:
    """The cache form: h, the selection and each mode's family, nu and delta."""

    def g17(x: float) -> str:
        return format(x, ".17g")

    rows = ",\n".join(
        '    {"family": "%s", "nu": %s, "delta": %s}' % (_TAGS[code].value, g17(nu), g17(delta))
        for code, nu, delta in zip(*(a.tolist() for a in spec.arrays[:3]))
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


# A cached nu must solve its characteristic equation to this residual,
# relative to the derivative scale.
_RESIDUAL_TOL = 1e-8


def spectrum_from_json(text: str) -> Spectrum:
    """Rebuild a spectrum from its cache form, revalidating the eigendata.

    Every separable nu must solve its characteristic equation to within
    _RESIDUAL_TOL; delta is recomputed from nu and must match the cached
    one, and so must normConst where the cache lists it (caches written
    before the column was dropped) and the recomputed value is above 1e-290.
    The first row that fails raises.
    """
    data = json.loads(text)
    rect = Rectangle(float(data["h"]))
    selection = data["selection"]
    if selection not in (PER_FAMILY, GLOBAL_SORTED):
        raise SpectrumError(f"unknown selection policy {selection!r} in cache")

    rows = data["modes"]
    code = np.array([_CODE[FamilyTag(row["family"])] for row in rows], dtype=int)
    if not code.size or code[0] != _CODE[FamilyTag.CONST]:
        raise SpectrumError("cache must list the constant mode first")
    nu = np.array([float(row["nu"]) for row in rows])
    names = ("delta", "normConst") if "normConst" in rows[0] else ("delta",)
    cached = {name: np.array([float(row[name]) for row in rows]) for name in names}

    sep = np.flatnonzero(code > _XY)
    with np.errstate(divide="ignore", invalid="ignore"):  # a nu of 0 or inf fails below
        resid, scale = _char_residuals(code[sep], nu[sep], rect)
    bad = np.zeros(code.size, dtype=bool)
    bad[sep] = ~(np.abs(resid) <= _RESIDUAL_TOL * scale)
    bad_xy = (code == _XY) & (not rect.is_square)
    bad_nu = np.zeros(code.size, dtype=bool)
    bad_nu[sep] = ~(nu[sep] > 0.0)
    first = np.flatnonzero(bad | bad_xy | bad_nu)
    if first.size:
        i = first[0]
        family = _TAGS[code[i]]
        if bad[i]:
            raise SpectrumError(
                f"cached nu={nu[i]} fails the {family.value} characteristic "
                f"equation: residual {resid[np.searchsorted(sep, i)]:.3g}"
            )
        if bad_xy[i]:
            raise SpectrumError("the xy mode exists only on the square (h = 1)")
        raise ValueError(f"nu must be positive, got {nu[i]}")

    # the constant and xy rows as make_mode builds them, whatever nu they list
    nu[code <= _XY] = 0.0
    delta = np.where(code == _XY, 1.0, 0.0)
    norm_scaled = np.where(code == _XY, math.sqrt(3.0), 1.0)
    hyp_scale = np.zeros(code.size)
    delta[sep] = _eigenvalues(code[sep], nu[sep], rect)
    norm_scaled[sep], hyp_scale[sep] = _norms_scaled(code[sep], nu[sep], rect)
    recomputed = {"delta": (delta, 1e-12), "normConst": (norm_scaled * np.exp(-hyp_scale), 1e-10)}
    for name, got in cached.items():
        ref, tol = recomputed[name]
        off = np.flatnonzero((ref > 1e-290) & (np.abs(got - ref) > tol * np.maximum(1.0, np.abs(ref))))
        if off.size:
            i = off[0]
            raise SpectrumError(
                f"cached {name}={got[i]} disagrees with recomputed {ref[i]} "
                f"for {_TAGS[code[i]].value}, nu={nu[i]}"
            )

    # family_rank: the row's ordinal among the rows of its family
    order = np.argsort(code, kind="stable")
    rank = np.empty_like(code)
    rank[order] = np.arange(code.size) - np.searchsorted(code[order], code[order])
    # per family, the most roots of one family; global, the retained count
    depth = int(np.bincount(code).max()) if selection == PER_FAMILY else code.size - 1
    return Spectrum(rect, ModeArrays(code, nu, delta, norm_scaled, hyp_scale, rank), selection, depth)


def load_spectrum(path) -> Spectrum:
    with open(path, encoding="utf-8") as fh:
        return spectrum_from_json(fh.read())
