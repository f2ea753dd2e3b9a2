"""Characteristic-equation roots against an independent bisection oracle and a
40-digit mpmath oracle, and the number of characteristic evaluations a build
takes."""

import math

import numpy as np
import pytest

from steklov import FamilyTag, Rectangle, RootFindError, build_spectrum, build_spectrum_by_count, find_roots, make_mode
from steklov import spectrum
from steklov.cli import main
from scalar_reference import _FAMILIES, NEAR_SQUARE, char_residual, eigenvalue_of

SEPARABLE = [getattr(FamilyTag, f"F{k}") for k in range(1, 9)]


def bisect(f, a, b, tol=1e-14):
    """Plain bisection, independent of the package root finder."""
    fa, fb = f(a), f(b)
    assert fa == 0.0 or fb == 0.0 or fa * fb < 0.0
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    while b - a > tol:
        c = 0.5 * (a + b)
        fc = f(c)
        if fc == 0.0:
            return c
        if fa * fc < 0.0:
            b = c
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


def oracle_f1_roots(h, count):
    """Roots of tan(nu h) + tanh(nu) = 0 on the brackets ((k-1/4)pi, k pi) in nu*h."""
    roots = []
    for k in range(1, count + 1):
        f = lambda nu: math.tan(nu * h) + math.tanh(nu)
        roots.append(bisect(f, ((k - 0.25) * math.pi + 1e-12) / h, (k * math.pi - 1e-12) / h))
    return roots


def test_f1_roots_match_oracle_on_square():
    rect = Rectangle(1.0)
    got = find_roots(FamilyTag.F1, rect, 2, tol=1e-12)
    want = oracle_f1_roots(1.0, 2)
    assert got == pytest.approx(want, abs=1e-11)
    # frozen oracle values
    assert got[0] == pytest.approx(2.365020372431352, abs=1e-10)
    assert got[1] == pytest.approx(5.497803919000836, abs=1e-10)


def test_count_zero_returns_empty():
    rect = Rectangle(0.7)
    for family in SEPARABLE:
        assert find_roots(family, rect, 0) == []


def test_f4_equals_f3_on_square():
    rect = Rectangle(1.0)
    r3 = find_roots(FamilyTag.F3, rect, 1, tol=1e-12)[0]
    r4 = find_roots(FamilyTag.F4, rect, 1, tol=1e-12)[0]
    assert abs(r3 - r4) <= 1e-12


def test_square_degenerate_family_pairs():
    rect = Rectangle(1.0)
    for fa, fb in ((FamilyTag.F1, FamilyTag.F2), (FamilyTag.F3, FamilyTag.F4),
                   (FamilyTag.F5, FamilyTag.F8), (FamilyTag.F6, FamilyTag.F7)):
        ra = find_roots(fa, rect, 3)
        rb = find_roots(fb, rect, 3)
        assert ra == pytest.approx(rb, abs=1e-11)


def test_f3_low_root_only_below_square():
    # tan(nu h) = tanh(nu) has an extra branch near zero exactly when h < 1
    r_low = find_roots(FamilyTag.F3, Rectangle(0.5), 1)[0]
    assert 0.0 < r_low < math.pi / 2.0
    r_square = find_roots(FamilyTag.F3, Rectangle(1.0), 1)[0]
    assert r_square > math.pi


@pytest.mark.parametrize("family", SEPARABLE)
@pytest.mark.parametrize("h", [1.0, 0.8, 0.5, 0.31])
def test_residual_contract(family, h):
    rect = Rectangle(h)
    tol = 1e-12
    for nu in find_roots(family, rect, 12, tol=tol):
        resid, scale = char_residual(family, nu, rect)
        assert abs(resid) <= 10.0 * tol * scale


@pytest.mark.parametrize("family", SEPARABLE)
def test_roots_strictly_increasing(family):
    rect = Rectangle(0.8)
    roots = find_roots(family, rect, 10)
    assert all(b > a for a, b in zip(roots, roots[1:]))
    deltas = [eigenvalue_of(family, nu, rect) for nu in roots]
    assert all(b > a for a, b in zip(deltas, deltas[1:]))


def test_eigenvalue_rules():
    rect = Rectangle(1.0)
    nu = find_roots(FamilyTag.F1, rect, 1)[0]
    assert eigenvalue_of(FamilyTag.F1, nu, rect) == pytest.approx(nu * math.tanh(nu), rel=1e-15)
    assert eigenvalue_of(FamilyTag.F1, nu, rect) == pytest.approx(2.3236377534317225, abs=1e-10)
    # rule (iii) tends to 1 at zero frequency, matching the xy eigenvalue
    assert eigenvalue_of(FamilyTag.F3, 1e-9, rect) == pytest.approx(1.0, abs=1e-12)
    # rule (ii) on a flat rectangle, cross-checked against the definition
    rect2 = Rectangle(0.5)
    nu2 = find_roots(FamilyTag.F2, rect2, 1)[0]
    assert eigenvalue_of(FamilyTag.F2, nu2, rect2) == pytest.approx(nu2 * math.tanh(0.5 * nu2), rel=1e-15)


def test_make_mode_rejects_nonpositive():
    for nu in (0.0, -1.0):
        with pytest.raises(ValueError):
            make_mode(FamilyTag.F1, Rectangle(1.0), nu)


def test_tolerance_floor_enforced():
    with pytest.raises(ValueError):
        find_roots(FamilyTag.F1, Rectangle(1.0), 1, tol=1e-15)


def test_large_branch_saturated_tanh():
    # far branches where tanh rounds to 1: the endpoint itself is the root
    rect = Rectangle(0.5)
    roots = find_roots(FamilyTag.F1, rect, 50)
    assert len(roots) == 50
    for nu in roots[-5:]:
        resid, scale = char_residual(FamilyTag.F1, nu, rect)
        assert abs(resid) <= 1e-11 * scale


def oracle_root(family: FamilyTag, nu: float, h: float) -> float:
    """The root next to nu of the family's characteristic equation, at 40 digits:
    tan(nu*aT) + R(nu) = 0 for a cos profile, cot(nu*aT) - R(nu) = 0 for a sin
    profile, R(nu) = tanh(nu*aH) for a cosh profile and coth(nu*aH) for a sinh one."""
    mp = pytest.importorskip("mpmath").mp
    info = _FAMILIES[family]
    with mp.workdps(40):
        h = mp.mpf(h)
        a_t, a_h = (h, mp.mpf(1)) if info.hyp_axis == "x" else (mp.mpf(1), h)
        R = mp.tanh if info.hyp == "cosh" else mp.coth
        if info.trig == "cos":
            char = lambda v: mp.tan(v * a_t) + R(v * a_h)
        else:
            char = lambda v: mp.cot(v * a_t) - R(v * a_h)
        return mp.findroot(char, mp.mpf(nu))


@pytest.mark.parametrize("h", [1.0, 0.8, 0.5, 0.1, 0.01, 1e-3] + NEAR_SQUARE)
def test_roots_match_a_40_digit_oracle(h):
    # near the square the extra F3 root, nu of order sqrt(1 - h), is where
    # tan(theta) and tanh(nu) cancel; it must be as accurate as the others
    spec = build_spectrum_by_count(Rectangle(h), 400)
    rows = np.r_[np.arange(1, 41), np.arange(41, spec.size, 37)]  # the first 40, then a sample
    rows = rows[spec.arrays.code[rows] > 1]  # the separable modes
    worst = 0.0
    for row in rows:
        nu = float(spec.arrays.nu[row])
        want = oracle_root(spec.family(row), nu, h)
        worst = max(worst, float(abs((nu - want) / want)))
    assert worst <= 1e-14, worst


@pytest.mark.parametrize("h", [1e-4, 1e-5])
def test_thin_rectangle_roots_match_a_40_digit_oracle(h, tmp_path):
    # tol * aT is 1e-16 and 1e-17 in theta there, below one ulp of theta
    # (0.8-1.6), so the last step is bounded by a few ulp instead; every
    # family converges, also the ones with the short trigonometric axis
    rect = Rectangle(h)
    spec = build_spectrum(rect, 3)
    roots = [(spec.family(row), float(spec.arrays.nu[row])) for row in range(1, spec.size)]
    roots += [(family, nu) for family in (FamilyTag.F5, FamilyTag.F7) for nu in find_roots(family, rect, 3)]
    assert {family for family, _ in roots} == set(SEPARABLE)
    worst = 0.0
    for family, nu in roots:
        want = oracle_root(family, nu, h)
        worst = max(worst, float(abs((nu - want) / want)))
    assert worst <= 1e-14, worst
    assert main(["spectrum", "--h", repr(h), "--M", "2", "--out", str(tmp_path / "s.json")]) == 0


@pytest.mark.parametrize("h", [1.0, 0.6, 1e-3])
def test_the_step_floor_leaves_thicker_rectangles_bit_for_bit(monkeypatch, h):
    # at _ROOT_TOL, tol * aT is above _STEP_ULPS ulp of every theta in a
    # bracket for aT >= 1e-3: the roots are those without the floor
    rect = Rectangle(h)
    floored = [build_spectrum_by_count(rect, 1200).arrays.nu, build_spectrum(rect, 20).arrays.nu]
    monkeypatch.setattr(spectrum, "_STEP_ULPS", 0.0)
    plain = [build_spectrum_by_count(rect, 1200).arrays.nu, build_spectrum(rect, 20).arrays.nu]
    assert all(np.array_equal(a, b) for a, b in zip(floored, plain))


@pytest.mark.parametrize("count", [41, 400, 1200])
@pytest.mark.parametrize("h", [1.0, 0.8, 0.6])
def test_a_build_takes_few_characteristic_evaluations(monkeypatch, h, count):
    # the bracket ends, then one lock-step safeguarded Newton iteration
    calls = []
    evaluate = spectrum._char_arrays
    monkeypatch.setattr(spectrum, "_char_arrays", lambda *args: calls.append(1) or evaluate(*args))
    spec = build_spectrum_by_count(Rectangle(h), count)
    assert spec.size == count + 1
    assert 2 < len(calls) <= 16, len(calls)


def test_root_find_errors_name_the_branch(monkeypatch):
    # F1's branch k = 1 on the square has its root near theta = -0.7804
    square, f1 = Rectangle(1.0), np.array([spectrum._CODE[FamilyTag.F1]])
    with pytest.raises(RootFindError, match=r"f1: .* branch 1, .*: f\(ends\) = "):
        spectrum._solve_branches(f1, np.array([1]), np.array([-math.pi / 4]), np.array([-0.785]), square, 1e-12)
    monkeypatch.setattr(spectrum, "_NEWTON_CAP", 2)
    with pytest.raises(RootFindError, match="no convergence in 2 safeguarded Newton steps"):
        find_roots(FamilyTag.F1, Rectangle(0.8), 3)
