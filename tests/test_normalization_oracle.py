"""Mode normalizations against a 40-digit mpmath oracle, near the square included.

Just below the square (h = 1 - eps) the F3 family has a root of order
sqrt(eps), where 1 - sin(x)/x and the sinh square integral cancel in
double precision; the oracle takes the closed-form boundary integrals at 40
digits, where that cancellation costs nothing.
"""

import numpy as np
import pytest

from steklov import FamilyTag, Rectangle, build_spectrum_by_count
from steklov.analysis import check_orthonormality
from steklov.spectrum import _norms_scaled

from scalar_reference import NEAR_SQUARE

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

# family -> (hyperbolic axis, hyperbolic profile, trigonometric profile)
PROFILES = {
    FamilyTag.F1: ("x", "cosh", "cos"), FamilyTag.F2: ("y", "cosh", "cos"),
    FamilyTag.F3: ("x", "sinh", "sin"), FamilyTag.F4: ("y", "sinh", "sin"),
    FamilyTag.F5: ("x", "cosh", "sin"), FamilyTag.F6: ("y", "sinh", "cos"),
    FamilyTag.F7: ("x", "sinh", "cos"), FamilyTag.F8: ("y", "cosh", "sin"),
}


def oracle_norm_scaled(family: FamilyTag, nu: float, h: float):
    """normConst * exp(nu*aH), with normConst^2 times the boundary integral
    of the unnormalized mode equal to the perimeter, at 40 digits."""
    with mp.workdps(40):
        hyp_axis, hyp, trig = PROFILES[family]
        nu, h = mp.mpf(nu), mp.mpf(h)
        a_h, a_t = (mp.mpf(1), h) if hyp_axis == "x" else (h, mp.mpf(1))
        s, r = nu * a_h, nu * a_t
        H = mp.cosh if hyp == "cosh" else mp.sinh
        T = mp.cos if trig == "cos" else mp.sin
        # integrals of T(nu v)^2 over [-aT, aT] and of H(nu u)^2 over [-aH, aH]
        t_int = a_t + (1 if trig == "cos" else -1) * mp.sin(2 * r) / (2 * nu)
        h_int = mp.sinh(2 * s) / (2 * nu) + (1 if hyp == "cosh" else -1) * a_h
        integral = 2 * (H(s) ** 2 * t_int + T(r) ** 2 * h_int)
        return mp.sqrt(4 * (1 + h) / (integral * mp.exp(-2 * s)))


@pytest.mark.parametrize("h", NEAR_SQUARE + [1.0, 0.5, 0.1])
def test_norms_scaled_match_the_oracle(h):
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, 400)
    rows = np.r_[np.arange(1, 41), np.arange(41, spec.size, 37)]  # the first 40, then a sample
    rows = rows[spec.arrays.code[rows] > 1]  # the separable modes
    code, nu = spec.arrays.code[rows], spec.arrays.nu[rows]
    got, _ = _norms_scaled(code, nu, rect)
    worst = 0.0
    for j, row in enumerate(rows):
        want = oracle_norm_scaled(spec.family(row), float(nu[j]), h)
        worst = max(worst, float(abs((got[j] - want) / want)))
    assert worst <= 1e-13, worst


@pytest.mark.parametrize("h", [1.0 - 1e-8, 1.0 - 3.2e-9, 1.0 - 1e-6])
def test_gram_is_the_identity_just_below_the_square(h):
    check = check_orthonormality(build_spectrum_by_count(Rectangle(h), 40), 1e-12)
    assert check.passed, check.line()
