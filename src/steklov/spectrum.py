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
the periodic factor, which gives guaranteed brackets for a safeguarded
Newton iteration.

Hyperbolic factors are evaluated in exponentially rescaled form, exp(nu*aH)
factored out of both the raw profile and the normalization constant, so modes
remain finite in double precision far beyond the overflow of cosh: with 8000
modes at h = 1 (nu up to about 3142) the top mode, F3, still has a trace
close to 2 sin(nu y) on G1, as its normalization implies. The unscaled
normConst = norm_scaled * exp(-nu*aH) underflows to 0.0 at that size (already
at 1000 modes for h = 0.001), so nothing stores it: the cache holds family,
nu and delta, each number exactly as `%.17g` (`cells.float_cells`, loaded
with the first cache). Loading one rebuilds the spectrum its h and selection
claim, which its rows (and an older cache's normConst column) must match.

The mode math has one implementation, on numpy arrays indexed by mode.
Branch k of a family brackets one root, so each branch's eigenvalue has
known bounds before anything is solved; only the branches that can hold a
kept mode are solved, all families in one lock-step safeguarded Newton
iteration. Eigenvalues, normalization pairs and characteristic values are
computed per element of the same arrays. The public functions of one family,
find_roots and make_mode, are these array forms on one family's branches or
on length-1 arrays; only tests and the benchmark's tracer call them.

A Spectrum is its per-mode arrays (ModeArrays), constant mode first; per-mode
results downstream are arrays aligned with its rows, and sub-spectra are row
subsets (take, head). SteklovMode records (Spectrum.modes) are a view, built
when first read; the package itself never reads them.
A Spectrum evaluates all its nonconstant modes at once from their separable
factors, which no other module touches: the (K, N) matrix of values or of a
gradient component (values), and the weighted expansion or its gradient at
points, in blocks of bounded size (expand), or on a tensor grid (expand_grid).
Its block rule (_point_blocks) is the package's one: the coefficient pass and
the truncation sweep take their blocks from it.
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


# ---------------------------------------------------------------------------
# array forms: the branches of all families at once
# ---------------------------------------------------------------------------

# Per-mode arrays name the family by its code, FamilyTag.order (CONST 0, XY 1,
# F1..F8 2..9). _PROFILE gives each family the kinds of its factors along x
# and along y, and every profile table below is derived from it. The kinds
# are in the order _factor_plan sorts them, the trigonometric ones first.
_TAGS = tuple(FamilyTag)
_CODE = {tag: code for code, tag in enumerate(_TAGS)}
_XY, _F3, _F4 = _CODE[FamilyTag.XY], _CODE[FamilyTag.F3], _CODE[FamilyTag.F4]
_KINDS = ("cos", "sin", "cosh", "sinh", "linear")
_PROFILE = {
    FamilyTag.CONST: ("cos", "cos"),
    FamilyTag.XY: ("linear", "linear"),
    FamilyTag.F1: ("cosh", "cos"),
    FamilyTag.F2: ("cos", "cosh"),
    FamilyTag.F3: ("sinh", "sin"),
    FamilyTag.F4: ("sin", "sinh"),
    FamilyTag.F5: ("cosh", "sin"),
    FamilyTag.F6: ("cos", "sinh"),
    FamilyTag.F7: ("sinh", "cos"),
    FamilyTag.F8: ("sin", "cosh"),
}
_KIND_ALONG = np.array([[_KINDS.index(kind) for kind in _PROFILE[tag]] for tag in _TAGS])
# Per code: the axis of the hyperbolic factor, the one of the later kind (0
# for x, 1 for y; 0 for CONST and XY), its kind and the other factor's kind.
# The tables of the characteristic equation are read on separable codes only.
_HYP_AXIS = np.argmax(_KIND_ALONG, axis=1)
_HYP_KIND, _TRIG_KIND = _KIND_ALONG.max(axis=1), _KIND_ALONG.min(axis=1)
_COSH = _HYP_KIND == _KINDS.index("cosh")
_COS = _TRIG_KIND == _KINDS.index("cos")
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
    [_BRACKETS.get((_KINDS[trig], _KINDS[hyp]), (0.0, 0.0, 0)) for trig, hyp in zip(_TRIG_KIND, _HYP_KIND)]
).T
_EXTRA = (_TRIG_KIND == _KINDS.index("sin")) & (_HYP_KIND == _KINDS.index("sinh"))
_TINY_THETA = 1e-9
_ENDPOINT_RTOL = 100.0 * 2.220446049250313e-16  # residual at rounding level, per unit f'

# The plan of _factor_plan groups the factor kinds in three spans, each
# evaluated in one pass by _apply_kinds: trig (cos, sin), hyp (cosh, sinh)
# and linear.
_SPANS = (("trig", 0, 2), ("hyp", 2, 4), ("linear", 4, 5))  # (span, first, end) as indices of _KINDS
# Per code, whether its factor along x (column 0) and along y (column 1) is
# odd: sin, sinh and linear are, cos and cosh are not. The constant is even
# along both axes, xy odd along both. A mode is odd under the point
# reflection p -> -p (classes III and IV) when it is odd along one axis only.
_ODD_ALONG = np.isin(_KIND_ALONG, [_KINDS.index(kind) for kind in ("sin", "sinh", "linear")])


def _extents(code: np.ndarray, rect: Rectangle):
    """(aT, aH) per element: the half-extents of the trigonometric and
    hyperbolic axes of each code's profile."""
    hyp_x = _HYP_AXIS[code] == 0
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


# The Taylor coefficients T_n / (2n+1)! of tan(x) = x + sum_n T_n x^(2n+1) / (2n+1)!
# for n = 1, ..., 10 (T_n the tangent numbers): with z = x^2 and Q(z) the
# sum of the n-th coefficient times z^(n-1), tan(x) - x is x * z * Q(z) and
# tanh(x) - x is -x * z * Q(-z), to within 3e-16 relative for |x| < _TAN_SERIES_MAX.
_TAN_SERIES = np.array([t / math.factorial(2 * n + 1) for n, t in enumerate(
    (2, 16, 272, 7936, 353792, 22368256, 1903757312, 209865342976, 29088885112832, 4951498053124096), 1)])
_TAN_SERIES_MAX = 0.25


def _char_arrays(theta, k_pi, a_t, a_h, tan, sign, extra):
    """The characteristic function f and its derivative f' in theta on branch
    k at local angle theta, per element.

    f is the periodic factor, tan(theta) where tan is set and cot(theta)
    elsewhere, plus sign * tanh(x), with x = nu*aH, nu = (k*pi + theta) / aT
    and k_pi = k*pi.

    extra lists the elements on the extra low branch (k = 0 of a tan row, aT
    < aH). Near the square its root is of order sqrt(1 - h), where tan(theta)
    and tanh(x) agree to most digits: there, where x < _TAN_SERIES_MAX, f is
    theta * (aT - aH) / aT + (tan(theta) - theta) - (tanh(x) - x), both
    differences from their Taylor series and aT - aH = h - 1 exact, and f' is
    (aT - aH) / aT + tan(theta)^2 + tanh(x)^2 * aH / aT.
    """
    nu = (k_pi + theta) / a_t
    x = nu * a_h
    th = np.tanh(x)
    p = np.tan(theta)
    cot = ~tan
    np.divide(1.0, p, out=p, where=cot)
    f = p + sign * th
    df = p * p
    df += 1.0
    np.negative(df, out=df, where=cot)
    df += sign * (1.0 - th * th) * a_h / a_t
    near = extra[x[extra] < _TAN_SERIES_MAX]
    if near.size:
        t, s, slope = theta[near], x[near], (a_t[near] - a_h[near]) / a_t[near]
        z = np.array((t * t, -s * s))
        q = (z[..., None] ** np.arange(_TAN_SERIES.size)) @ _TAN_SERIES  # Q(t^2) and Q(-s^2)
        f[near] = t * slope + t * t * t * q[0] + s * s * s * q[1]
        df[near] = slope + p[near] ** 2 + th[near] ** 2 * a_h[near] / a_t[near]
    return f, df


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


_ROOT_TOL = 1e-12  # the last step, in nu, of the roots the spectrum builders solve
_NEWTON_CAP = 100  # steps of _solve_branches; halving pi/2 to 1e-14 * 1e-3 takes 57
# The floor of the step tolerance in theta, in ulp of the bracket's larger
# end: tol * aT falls below one ulp of theta (0.8-1.6) once aT < 2e-4 at
# _ROOT_TOL, where no step can reach it. 4 ulp is 8.9e-16 at most, below
# _ROOT_TOL * aT for every aT >= 1e-3, so it binds only on thinner rectangles.
_STEP_ULPS = 4.0


def _solve_branches(code, k, lo, hi, rect: Rectangle, tol: float) -> np.ndarray:
    """The root on every branch of _branch_table, all branches in lock-step.

    Each branch keeps its bracket end when that end's residual is at rounding
    level (both ends of the same sign is an error otherwise). The others run
    a safeguarded Newton iteration (rtsafe, Numerical Recipes section 9.4)
    from the regula-falsi point of the bracket ends: each evaluation of f
    replaces the bracket end on its side of the root, and the next point is
    the Newton step where it lands in the bracket, else the bracket's
    midpoint. Once a step is at most tol * aT in theta (tol in nu), or
    _STEP_ULPS ulp of the bracket's larger end if that is more, a step
    stands only if it shrinks |f|: the branch stops at its last point when
    the next does not, or is the same float. tol is _ROOT_TOL, or
    find_roots' checked argument; RootFindError after _NEWTON_CAP steps.

    On the extra branch f is 0 at theta = 0 and falls before it rises
    through its root; near the square f is about theta^3 - (1 - h) * theta,
    where a Newton step from above cuts theta by only a third. There the
    step is Newton's for f / theta as a function of theta^2: the same root,
    an increasing function, and near the square almost a linear one.
    """
    a_t, a_h = _extents(code, rect)
    k_pi = k * math.pi
    tan, sign = _TAN[code], _SIGN[code]
    extra = np.flatnonzero(tan & (k == 0))

    def char(theta):
        return _char_arrays(theta, k_pi, a_t, a_h, tan, sign, extra)

    def fail(i, detail):
        bracket = ((k_pi[i] + lo[i]) / a_t[i], (k_pi[i] + hi[i]) / a_t[i])
        return RootFindError(_TAGS[code[i]], int(k[i]), bracket, detail)

    flo, dlo = char(lo)
    fhi, dhi = char(hi)
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

    a, b, fa = lo, hi, flo
    theta_tol = np.maximum(tol * a_t, _STEP_ULPS * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    live, close = ~done, np.zeros_like(done)
    with np.errstate(divide="ignore", invalid="ignore"):  # only in values np.where discards
        theta = np.where(done, np.where(at_lo, lo, hi), lo - flo * (hi - lo) / (fhi - flo))
        best, fbest = theta, np.full(theta.shape, np.inf)  # the last point evaluated, and its |f|
        for _ in range(_NEWTON_CAP):
            if not live.any():
                break
            f, df = char(theta)
            # once the steps are within tol, a step stands only if it shrinks |f|;
            # a stopped branch's theta is its last point evaluated, best
            af = np.abs(f)
            live &= ~close | (af < fbest)
            theta = np.where(live, theta, best)
            best, fbest = theta, af
            # theta becomes the bracket end on its side of the root
            up = (f < 0.0) == (fa < 0.0)
            a, fa, b = np.where(up, theta, a), np.where(up, f, fa), np.where(up, b, theta)
            nxt = theta - f / df
            if extra.size:  # the Newton step of f / theta in theta^2
                t, g = theta[extra], f[extra] / theta[extra]
                nxt[extra] = t * np.sqrt(1.0 - 2.0 * g / (df[extra] - g))
            nxt = np.where((a <= nxt) & (nxt <= b), nxt, 0.5 * (a + b))
            close |= np.abs(nxt - theta) <= theta_tol
            live &= nxt != theta
            theta = np.where(live, nxt, theta)
    if live.any():
        raise fail(np.flatnonzero(live)[0], f"no convergence in {_NEWTON_CAP} safeguarded Newton steps")
    return (k_pi + theta) / a_t


# ---------------------------------------------------------------------------
# public eigendata of one family: the array forms above on its branches or on
# length-1 arrays
# ---------------------------------------------------------------------------


# Kept for the benchmark, whose tracer wraps it by name.
def find_roots(family: FamilyTag, rect: Rectangle, count: int, tol: float = _ROOT_TOL) -> list[float]:
    """The `count` smallest positive roots of a family's characteristic equation.

    Each root is bracketed on a single branch of the periodic factor and
    refined by safeguarded Newton steps inside the bracket until a step is
    at most `tol` in nu, then by further steps while they shrink the
    residual: `tol` bounds the last step, and the root is within about
    `tol` (within a few ulp at the default _ROOT_TOL). On a thin rectangle,
    where `tol` times the trigonometric half-extent aT is below a few ulp of
    the local angle nu * aT - k * pi, the last step is bounded by those ulp
    instead, _STEP_ULPS of them: `tol` is then that many ulp divided by aT
    (4e-12 to 9e-12 in nu at aT = 1e-4).
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
    if family is FamilyTag.XY and not rect.is_square:
        raise SpectrumError("the xy mode exists only on the square (h = 1)")
    if family.is_separable and nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    arrays = _mode_arrays(rect, np.array([_CODE[family]]), np.array([float(nu)]), np.array([family_rank]))
    nu, delta, norm_scaled, hyp_scale = (float(a[0]) for a in arrays[1:5])
    return SteklovMode(family, nu, delta, rect, norm_scaled, hyp_scale, family_rank=family_rank)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

# Mode x point entries per kernel call over a block of points. Bounds the
# working memory at any point count (128 kB per K x block matrix). Blocks of
# 2**12 to 2**16 entries, 80 modes, 2 vCPUs: expand at 1e5 points took 222,
# 191, 172, 161 and 331 ms, its gradient at 4e4 points 115, 102, 93, 193 and
# 256 ms (41 modes: the same order, 2**14 and 2**15 tied on the values). A
# block is a whole number of _BLOCK points, one at least, so per-call
# overhead stays small at large K, and products taken one _BLOCK-column
# slice at a time (_mode_blocks) do not depend on the block.
_BLOCK_ENTRIES = 1 << 14
_BLOCK = 64


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

    def values(self, x, y, derivative: bool = False):
        """The nonconstant modes at N points: a (K, N) matrix, row j for mode j+1.

        x and y are 1-D arrays of N coordinates, or one of them a single
        coordinate for all N points (no domain check); the matrix is the
        product of the two factor matrices of _factors, Fx * Fy, or with
        derivative the triple of it and the gradient components,
        (Fx * Fy, dFx * Fy, Fx * dFy), from one evaluation of the factors.
        """
        (fx, fy), d = self._factors(x, y, derivative)
        if derivative:
            dfx, dfy = d
            return fx * fy, dfx * fy, fx * dfy
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

        x and y broadcast together, cut into the blocks of _point_blocks. A
        coordinate of size 1, shared by all points (a side's fixed
        coordinate), is passed to every block as it is, so that _factors
        evaluates its factors once. Returns `count` floats at one
        point (scalar x and y), else `count` arrays of the broadcast shape.
        """
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            return tuple(float(part[0]) for part in terms(np.array([x], dtype=float), np.array([y], dtype=float)))
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        x, y = (c.ravel() if c.size == 1 else np.broadcast_to(c, shape).ravel() for c in (x, y))
        out = np.empty((count, max(x.size, y.size)))
        for block, xb, yb in self._point_blocks(x, y):
            out[:, block] = terms(xb, yb)
        return tuple(out.reshape((count,) + shape))

    def _point_blocks(self, x, y):
        """(slice, x block, y block) over the points of the 1-D arrays x and
        y: as many whole _BLOCK-point blocks as fit in _BLOCK_ENTRIES mode x
        point entries, one at least (384 points at K = 41, 64 from K = 256
        on). A coordinate of size 1 is passed to every block as it is."""
        step = _BLOCK * max(1, _BLOCK_ENTRIES // (_BLOCK * max(1, self.size - 1)))
        for start in range(0, max(x.size, y.size), step):
            block = slice(start, start + step)
            yield block, (x if x.size == 1 else x[block]), (y if y.size == 1 else y[block])

    def _mode_blocks(self, x, y):
        """(slice, values block) over consecutive _BLOCK-point slices: values
        is evaluated once per block of _point_blocks, and each of its
        _BLOCK-column slices is yielded, so a product taken slice by slice is
        the same at any K. One of x and y may be a single coordinate shared
        by all points; it is evaluated once per block."""
        for block, xb, yb in self._point_blocks(x, y):
            s = self.values(xb, yb)
            for first in range(0, s.shape[1], _BLOCK):
                yield slice(block.start + first, block.start + first + _BLOCK), s[:, first:first + _BLOCK]

    def expand(self, weights, x, y, derivative: bool = False):
        """sum_j weights[j] * s_j(x, y) over the nonconstant modes, or with
        derivative its gradient (d/dx, d/dy), term by term.

        x and y broadcast together; a float (pair) at one point, an array
        (pair) of the broadcast shape otherwise. An (m, K) stack of weights
        gives the m sums from one evaluation of the modes, of shape (m,) + that.
        """
        w = np.asarray(weights, dtype=float)
        if derivative:
            def gradient(xb, yb):  # the gradient products alone, without the values'
                (fx, fy), (dfx, dfy) = self._factors(xb, yb, True)
                return w @ (dfx * fy), w @ (fx * dfy)

            return self._blocked(2, gradient, x, y)
        if w.ndim == 1:
            return self._blocked(1, lambda xb, yb: (w @ self.values(xb, yb),), x, y)[0]
        return np.array(self._blocked(len(w), lambda xb, yb: w @ self.values(xb, yb), x, y))

    def expand_grid(self, weights, xs, ys, derivative: bool = False):
        """expand on the tensor grid of the 1-D axes xs and ys, shape (ny, nx).

        One matrix product of the factor matrices per output, Fy(ys)^T @ (w * Fx(xs)),
        or (Fy^T @ (w * dFx), dFy^T @ (w * Fx)) with derivative: O(K * (nx + ny))
        transcendental evaluations instead of O(K * nx * ny).
        """
        w = np.asarray(weights, dtype=float)[:, None]
        (fx, fy), d = self._factors(xs, ys, derivative)
        if derivative:
            dfx, dfy = d
            return fy.T @ (w * dfx), dfy.T @ (w * fx)
        return fy.T @ (w * fx)

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


def _mode_arrays(rect: Rectangle, code: np.ndarray, nu: np.ndarray, rank: np.ndarray) -> ModeArrays:
    """The modes of these family codes, frequencies and ranks with delta,
    norm_scaled and hyp_scale: the constant (delta 0, norm 1) and xy (delta 1,
    norm sqrt(3)) take nu = 0, a separable mode's come from its nu."""
    nu = np.where(code <= _XY, 0.0, nu)
    delta = np.where(code == _XY, 1.0, 0.0)
    norm_scaled = np.where(code == _XY, math.sqrt(3.0), 1.0)
    hyp_scale = np.zeros(code.size)
    sep = np.flatnonzero(code > _XY)
    delta[sep] = _eigenvalues(code[sep], nu[sep], rect)
    norm_scaled[sep], hyp_scale[sep] = _norms_scaled(code[sep], nu[sep], rect)
    return ModeArrays(code, nu, delta, norm_scaled, hyp_scale, rank)


def _spectrum_of_roots(rect: Rectangle, code, rank, nu, keep: int | None, selection: str, depth: int) -> Spectrum:
    """The constant mode, then the `keep` smallest of the given roots (and of
    xy, on the square; all of them for keep None) in (delta, family order,
    nu) order."""
    code, rank, nu = np.append(_CODE[FamilyTag.CONST], code), np.append(0, rank), np.append(0.0, nu)
    if rect.is_square:
        code, rank, nu = np.append(code, _XY), np.append(rank, 0), np.append(nu, 0.0)
    arrays = _mode_arrays(rect, code, nu, rank)
    order = 1 + np.lexsort((arrays.nu[1:], arrays.code[1:], arrays.delta[1:]))[:keep]
    return Spectrum(rect, ModeArrays(*(a[np.append(0, order)] for a in arrays)), selection, depth)


def build_spectrum(rect: Rectangle, m: int) -> Spectrum:
    """Constant mode plus the first m roots of each family: the per-family
    spectrum of depth m (on the square, xy leads the class-II block and the
    block keeps its 2m slots). The global spectrum of the 8m smallest
    eigenvalues is build_spectrum_by_count(rect, 8 * m). The roots are
    solved to a last step of _ROOT_TOL in nu, as in find_roots.
    """
    if m < 1:
        raise ValueError(f"spectrum depth must be >= 1, got {m}")
    code, rank, k, lo, hi = _branch_table(rect, [m if tag.is_separable else 0 for tag in _TAGS])
    kept = _per_family_kept(code, rank, rect, m)
    code, rank, k, lo, hi = (c[kept] for c in (code, rank, k, lo, hi))
    nu = _solve_branches(code, k, lo, hi, rect, _ROOT_TOL)
    return _spectrum_of_roots(rect, code, rank, nu, None, PER_FAMILY, m)


def build_spectrum_by_count(rect: Rectangle, count: int) -> Spectrum:
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
    code, rank, k, lo, hi = _branch_table(rect, [count if tag.is_separable else 0 for tag in _TAGS])
    if count:
        a_t = _extents(code, rect)[0]
        lower, upper = (_eigenvalues(code, (k * math.pi + theta) / a_t, rect) for theta in (lo, hi))
        cutoff = np.partition(np.append(upper, 1.0) if rect.is_square else upper, count - 1)[count - 1]
        # the slack covers rounding in the bounds; it adds a root only on a near tie
        solve = lower <= cutoff * (1.0 + 1e-12)
        code, rank, k, lo, hi = (c[solve] for c in (code, rank, k, lo, hi))
    nu = _solve_branches(code, k, lo, hi, rect, _ROOT_TOL)
    return _spectrum_of_roots(rect, code, rank, nu, count, GLOBAL_SORTED, count)


# ---------------------------------------------------------------------------
# cache file
# ---------------------------------------------------------------------------


def mode_cells(spec: Spectrum):
    """Each mode's family name (ASCII bytes) and its nu and delta as `%.17g`
    cells: the texts of the cache, which a 17-digit listing shares."""
    from . import cells  # the formatter loads with the first cache or CSV
    a = spec.arrays
    nu_delta = cells.float_cells(np.concatenate([a.nu, a.delta]), 17)
    return np.array([tag.value for tag in _TAGS], dtype="S")[a.code], nu_delta[:spec.size], nu_delta[spec.size:]


def spectrum_to_json(spec: Spectrum, texts=None) -> str:
    """The cache form: h, the selection and each mode's family, nu and delta.

    `texts` is `mode_cells(spec)` when the caller has it already.
    """
    from . import cells
    _, nu, delta = texts or mode_cells(spec)
    heads = np.array([f'    {{"family": "{tag.value}", "nu": ' for tag in _TAGS], dtype="S")[spec.arrays.code]
    rows = cells.block_bytes([heads, nu, ' "delta": ', delta, "},"], 17, b"\0,\0\0\n").decode()
    head = f'{{\n  "h": {spec.rectangle.h:.17g},\n  "selection": "{spec.selection}",\n  "modes": [\n'
    return head + rows[:-2] + "\n  ]\n}\n"  # the last row without its comma


def save_spectrum(spec: Spectrum, path, texts=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spectrum_to_json(spec, texts))


def _row_error(rows: list, names) -> SpectrumError | None:
    """The error naming the first row that lacks a field, names an unknown
    family or holds a field in names that is not a JSON number, or None."""
    for i, row in enumerate(rows):
        missing = [name for name in ("family", *names) if name not in row]
        if missing:
            return SpectrumError(f"cache row {i} has no {missing[0]!r}")
        if row["family"] not in [tag.value for tag in _TAGS]:
            return SpectrumError(f"cache row {i}: unknown family {row['family']!r}")
        for name in names:
            if type(row[name]) is not float:  # JSON integers are read as floats; a bool or text is no number
                return SpectrumError(f"cache row {i}: {name} must be a number, got {row[name]!r}")


def spectrum_from_json(text: str) -> Spectrum:
    """The spectrum a cache claims, rebuilt, if the cache lists exactly it.

    h and the selection define the spectrum: per family, build_spectrum to
    the most rows one family lists; global, build_spectrum_by_count of the
    rows after the constant. The cache must list it row for row: as many
    rows, the same family in each, and nu and delta equal to 1e-12 relative
    (an older cache's normConst to 1e-10, where the rebuilt value exceeds
    1e-290). The rebuilt roots, the near-square extra F3 root included, are
    within a few ulp of the exact ones, so the 1e-12 bound checks the cached
    numbers' accuracy, not rounding noise. SpectrumError names the first row
    that differs, or that lacks a field, names an unknown family or holds a
    field that is no JSON number.
    """
    data = json.loads(text, parse_int=float)  # an integer beyond float range reads as inf
    if not isinstance(data, dict):
        raise SpectrumError(f"cache must be a JSON object, got {text[:40]!r}")
    try:
        h, selection, rows = data["h"], data["selection"], data["modes"]
    except KeyError as exc:
        raise SpectrumError(f"cache has no {exc.args[0]!r}") from None
    if type(h) is not float:
        raise SpectrumError(f"cache h must be a number, got {h!r}")
    rect = Rectangle(float(h))
    if selection not in (PER_FAMILY, GLOBAL_SORTED):
        raise SpectrumError(f"unknown selection policy {selection!r} in cache")
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise SpectrumError("cache modes must be a list of objects")
    if not rows:
        raise SpectrumError("cache lists no modes")
    names = ("nu", "delta", "normConst") if "normConst" in rows[0] else ("nu", "delta")
    if error := _row_error(rows, names):
        raise error
    code = np.array([_CODE[FamilyTag(row["family"])] for row in rows])
    listed = {name: np.array([row[name] for row in rows], dtype=float) for name in names}

    if selection == PER_FAMILY:
        spec = build_spectrum(rect, int(np.bincount(code).max()))
    else:
        spec = build_spectrum_by_count(rect, code.size - 1)
    ref = spec.arrays
    # each cached field's rebuilt value, and the relative tolerance between them
    normconst = ref.norm_scaled * np.exp(-ref.hyp_scale)
    rebuilt = {"nu": (ref.nu, 1e-12), "delta": (ref.delta, 1e-12), "normConst": (normconst, 1e-10)}
    n = min(code.size, spec.size)
    differs = {"family": code[:n] != ref.code[:n]}
    for name, got in listed.items():
        want, tol = rebuilt[name][0][:n], rebuilt[name][1]
        off = ~(np.abs(got[:n] - want) <= tol * np.abs(want))  # relative: a zero must be listed as zero
        differs[name] = off & (want > 1e-290) if name == "normConst" else off  # normConst where representable
    first = np.flatnonzero(np.logical_or.reduce(list(differs.values())))
    if not first.size and code.size == spec.size:
        return spec
    claim = f"the rebuilt {selection} spectrum of depth {spec.depth}"
    if not first.size:
        raise SpectrumError(f"cache row {n}: the cache lists {code.size} modes, {claim} has {spec.size}")
    i = first[0]
    name, family = next(name for name, off in differs.items() if off[i]), _TAGS[ref.code[i]].value
    if name == "family":
        raise SpectrumError(f"cache row {i}: family {rows[i]['family']} where {claim} has {family}, nu={ref.nu[i]}")
    raise SpectrumError(
        f"cache row {i}: cached {name}={listed[name][i]} disagrees with rebuilt {rebuilt[name][0][i]} "
        f"for {family}, nu={ref.nu[i]}"
    )


def load_spectrum(path) -> Spectrum:
    with open(path, encoding="utf-8") as fh:
        return spectrum_from_json(fh.read())
