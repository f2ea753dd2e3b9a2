"""Scalar reference for the mode math: Python floats, one mode at a time.

The package finds roots, normalizes and evaluates modes on numpy arrays only
(`_solve_branches` on the characteristic function `_char_arrays`,
`_eigenvalues`, `_norms_scaled` and the separable factor kernel of
`Spectrum`). These are the scalar formulas
that carried the same math before, kept here, outside the package, as an
independent reference for the tests: a bracket-per-branch bisection with
Newton polish, the closed-form normalization, and the value, gradient,
trace and normal derivative of one mode at one point. The mode methods
became functions of the mode. The family profiles are its own table too,
written from the paper's list of the eight separable families, so that the
package's profile tables are checked against it. pytest does not collect
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from steklov import FamilyTag, Rectangle, RootFindError, Side, SpectrumError, SteklovMode


@dataclass(frozen=True)
class _FamilyInfo:
    hyp_axis: str  # 'x' or 'y': axis carrying the hyperbolic factor
    hyp: str  # 'cosh' or 'sinh'
    trig: str  # 'cos' or 'sin'


# The separable families by parity class about the center:
#   class I   (even x, even y):  F1 cosh(nu x) cos(nu y),  F2 cos(nu x) cosh(nu y)
#   class II  (odd x, odd y):    F3 sinh(nu x) sin(nu y),  F4 sin(nu x) sinh(nu y)
#   class III (even x, odd y):   F5 cosh(nu x) sin(nu y),  F6 cos(nu x) sinh(nu y)
#   class IV  (odd x, even y):   F7 sinh(nu x) cos(nu y),  F8 sin(nu x) cosh(nu y)
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

# Aspect ratios just below the square, where the extra F3 root is of order
# sqrt(1 - h): the near-square cases of the 40-digit oracle tests.
NEAR_SQUARE = [1.0 - eps for eps in (1e-10, 1e-9, 3.2e-9, 1e-8, 1e-7, 1e-6)]


def family_info(family: FamilyTag) -> _FamilyInfo:
    try:
        return _FAMILIES[family]
    except KeyError:
        raise SpectrumError(f"{family} has no separable profile") from None


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
_ENDPOINT_RTOL = 100.0 * 2.220446049250313e-16  # residual at rounding level, per unit f'


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
            if abs(fend) <= _ENDPOINT_RTOL * scale:
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


def value(mode: SteklovMode, x: float, y: float) -> float:
    mode.rect.require_inside(x, y)
    return value_unchecked(mode, x, y)


def value_unchecked(mode: SteklovMode, x: float, y: float) -> float:
    fam = mode.family
    if fam is FamilyTag.CONST:
        return 1.0
    if fam is FamilyTag.XY:
        return mode.norm_scaled * x * y
    info = _FAMILIES[fam]
    u, v = (x, y) if info.hyp_axis == "x" else (y, x)
    if info.hyp == "cosh":
        hyp = _cosh_scaled(mode.nu * u, mode.hyp_scale)
    else:
        hyp = _sinh_scaled(mode.nu * u, mode.hyp_scale)
    trig = math.cos(mode.nu * v) if info.trig == "cos" else math.sin(mode.nu * v)
    return mode.norm_scaled * hyp * trig


def gradient(mode: SteklovMode, x: float, y: float) -> tuple[float, float]:
    mode.rect.require_inside(x, y)
    return gradient_unchecked(mode, x, y)


def gradient_unchecked(mode: SteklovMode, x: float, y: float) -> tuple[float, float]:
    fam = mode.family
    if fam is FamilyTag.CONST:
        return (0.0, 0.0)
    if fam is FamilyTag.XY:
        return (mode.norm_scaled * y, mode.norm_scaled * x)
    info = _FAMILIES[fam]
    u, v = (x, y) if info.hyp_axis == "x" else (y, x)
    nu, s = mode.nu, mode.hyp_scale
    if info.hyp == "cosh":
        hyp, dhyp = _cosh_scaled(nu * u, s), _sinh_scaled(nu * u, s)
    else:
        hyp, dhyp = _sinh_scaled(nu * u, s), _cosh_scaled(nu * u, s)
    if info.trig == "cos":
        trig, dtrig = math.cos(nu * v), -math.sin(nu * v)
    else:
        trig, dtrig = math.sin(nu * v), math.cos(nu * v)
    du = mode.norm_scaled * nu * dhyp * trig
    dv = mode.norm_scaled * nu * hyp * dtrig
    return (du, dv) if info.hyp_axis == "x" else (dv, du)


def trace(mode: SteklovMode, side: Side, t: float) -> float:
    x, y = mode.rect.side_point(side, t)
    return value_unchecked(mode, x, y)


def normal_derivative_on(mode: SteklovMode, side: Side, t: float) -> float:
    x, y = mode.rect.side_point(side, t)
    gx, gy = gradient_unchecked(mode, x, y)
    nx, ny = mode.rect.outward_normal(side)
    return gx * nx + gy * ny

