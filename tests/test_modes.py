"""Mode evaluation on the kernel, normalization, spectra, and the cache file."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    FamilyTag,
    GeometryError,
    GLOBAL_SORTED,
    PER_FAMILY,
    Rectangle,
    SIDES,
    Spectrum,
    SpectrumError,
    build_spectrum,
    build_spectrum_by_count,
    find_roots,
    make_mode,
    solve_dirichlet,
    spectrum_from_json,
    spectrum_to_json,
)

from steklov.spectrum import ModeArrays

import scalar_reference as ref


def one_mode(md):
    """The spectrum of the constant and md, to evaluate md on the kernel."""
    rows = ((FamilyTag.CONST.order, 0.0, 0.0, 1.0, 0.0, 0),
            (md.family.order, md.nu, md.delta, md.norm_scaled, md.hyp_scale, md.family_rank))
    return Spectrum(md.rect, ModeArrays(*map(np.array, zip(*rows))), PER_FAMILY, 1)


def kernel_value(md, x, y):
    """md at the points of the arrays x, y (or floats), by the kernel."""
    return one_mode(md).values(*np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y)))[0]


def kernel_rows(spec, x, y):
    """(values, d/dx, d/dy) of the nonconstant modes at the points x, y: (K, N) each."""
    (fx, fy), (dfx, dfy) = spec._factors(x, y, derivative=True)
    return fx * fy, dfx * fy, fx * dfy


def gauss_boundary_matrix(spec, n=240):
    """Gram matrix of boundary traces by Gauss-Legendre quadrature (oracle)."""
    rect = spec.rectangle
    nodes, wts = np.polynomial.legendre.leggauss(n)
    G = np.zeros((len(spec.modes), len(spec.modes)))
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        ts = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * wts
        vals = np.vstack((np.ones(ts.size), spec.values(*rect.side_point(side, ts))))
        G += (vals * ws) @ vals.T
    return G / rect.perimeter


def test_constant_mode():
    rect = Rectangle(0.8)
    md = make_mode(FamilyTag.CONST, rect)
    assert (md.nu, md.delta, md.norm_scaled, md.hyp_scale) == (0.0, 0.0, 1.0, 0.0)
    assert md.norm_const == 1.0 and md.key == ("const", 0.0)


def test_xy_mode_square_only():
    rect = Rectangle(1.0)
    md = make_mode(FamilyTag.XY, rect)
    assert md.delta == 1.0
    assert kernel_value(md, 0.5, 0.5)[0] == pytest.approx(math.sqrt(3.0) * 0.25, rel=1e-15)
    # outward derivative on the right side is sqrt(3)*y
    _, gx, _ = kernel_rows(one_mode(md), np.array([1.0]), np.array([0.5]))
    assert gx[0, 0] == pytest.approx(math.sqrt(3.0) * 0.5, rel=1e-15)
    with pytest.raises(SpectrumError):
        make_mode(FamilyTag.XY, Rectangle(0.5))


def test_norm_constants():
    rect = Rectangle(1.0)
    assert make_mode(FamilyTag.CONST, rect).norm_const == 1.0
    assert make_mode(FamilyTag.XY, rect).norm_const == pytest.approx(math.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize("family", [FamilyTag.F1, FamilyTag.F3, FamilyTag.F6, FamilyTag.F8])
@pytest.mark.parametrize("h", [1.0, 0.6])
def test_norm_constant_matches_quadrature(family, h):
    """Closed-form normalization against a Gauss-Legendre oracle of the trace square."""
    rect = Rectangle(h)
    nu = find_roots(family, rect, 3)[2]
    md = make_mode(family, rect, nu, 2)
    nodes, wts = np.polynomial.legendre.leggauss(400)
    total = 0.0
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        ts = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * wts
        total += ws @ kernel_value(md, *rect.side_point(side, ts)) ** 2
    assert total == pytest.approx(rect.perimeter, rel=1e-9)


def test_mode_value_decay_ratio():
    rect = Rectangle(1.0)
    nu = find_roots(FamilyTag.F1, rect, 1)[0]
    md = make_mode(FamilyTag.F1, rect, nu, 0)
    center, edge = kernel_value(md, np.array([0.0, 1.0]), 0.0)
    ratio = center / edge
    assert ratio == pytest.approx(1.0 / math.cosh(nu), rel=1e-12)


def test_mode_value_outside_domain():
    # modes are evaluated through an expansion, whose point evaluators check the domain
    rect = Rectangle(0.5)
    u = solve_dirichlet(BoundaryFunction.constant(1.0, rect), build_spectrum_by_count(rect, 8))
    with pytest.raises(GeometryError):
        u.eval(0.0, 0.6)
    with pytest.raises(GeometryError):
        u.eval_gradient(0.0, 0.6)


def test_steklov_identity_at_random_boundary_points(spec_pf5):
    rng = random.Random(3)
    rect = spec_pf5.rectangle
    for _ in range(100):
        side = rng.choice(SIDES)
        lo, hi = rect.side_interval(side)
        t = lo + (hi - lo) * (0.001 + 0.998 * rng.random())
        x, y = rect.side_point(side, t)
        nx, ny = rect.outward_normal(side)
        s, gx, gy = kernel_rows(spec_pf5, np.array([x]), np.array([y]))
        delta = spec_pf5.arrays.delta[1:, None]
        peak = np.maximum(np.abs(s), 1.0)
        assert (np.abs(gx * nx + gy * ny - delta * s) <= 1e-8 * (1.0 + delta) * peak).all()


def test_boundary_orthonormality_oracle(spec_pf5):
    G = gauss_boundary_matrix(spec_pf5)
    off = np.abs(G - np.eye(len(G))).max()
    assert off <= 1e-10


def test_interior_harmonicity_order():
    rect = Rectangle(1.0)
    nu = find_roots(FamilyTag.F5, rect, 1)[0]
    md = make_mode(FamilyTag.F5, rect, nu, 0)

    def lap(x, y, w):
        east, west, north, south, center = kernel_value(
            md, np.array([x + w, x - w, x, x, x]), np.array([y, y, y + w, y - w, y])
        )
        return (east + west + north + south - 4.0 * center) / (w * w)

    l1, l2 = abs(lap(0.21, -0.33, 0.02)), abs(lap(0.21, -0.33, 0.01))
    assert math.log2(l1 / l2) > 1.9


def test_overflow_safety_large_nu():
    rect = Rectangle(0.5)
    nu = find_roots(FamilyTag.F1, rect, 222)[-1]
    assert nu > 600.0
    md = make_mode(FamilyTag.F1, rect, nu, 221)
    x, y = (a.ravel() for a in np.meshgrid([-1.0, 0.0, 0.37, 1.0], [-0.5, 0.0, 0.5]))
    vals = kernel_value(md, x, y)
    assert np.isfinite(vals).all()
    assert np.abs(vals).max() < 1e3
    _, gx, gy = kernel_rows(one_mode(md), np.array([1.0]), np.array([0.25]))
    assert math.isfinite(gx[0, 0]) and math.isfinite(gy[0, 0])


def test_dilated_mode_steklov_identity():
    # dilated by L = 2, the mode p -> s(p / 2) on (-2, 2)^2 has eigenvalue delta / 2
    rect = Rectangle(1.0)
    nu = find_roots(FamilyTag.F1, rect, 1)[0]
    md = make_mode(FamilyTag.F1, rect, nu, 0)
    L, eps = 2.0, 1e-5
    x, y = 2.0, 0.6
    # one-sided finite difference of the dilated mode along the outward normal
    here, in1, in2 = kernel_value(md, np.array([x, x - eps, x - 2 * eps]) / L, y / L)
    dn = (3 * here - 4 * in1 + in2) / (2 * eps)
    assert dn == pytest.approx(md.delta / L * here, rel=1e-6)


def test_per_family_spectrum_counts(square, spec_pf5):
    assert len(spec_pf5.modes) == 41  # 1 + 8*5
    spec2 = build_spectrum(square, 2)
    assert len(spec2.modes) == 17  # 1 + 8*2
    spec1 = build_spectrum(square, 1)
    assert any(m.family is FamilyTag.XY and m.delta == 1.0 for m in spec1.modes)


def test_flat_rectangle_spectrum_counts():
    spec = build_spectrum(Rectangle(0.5), 3)
    assert len(spec.modes) == 25
    per_family = {}
    for md in spec.nonconstant:
        per_family[md.family] = per_family.get(md.family, 0) + 1
    assert all(v == 3 for v in per_family.values())


def test_square_class2_block_composition(spec_pf5):
    # xy leads class II and displaces the deepest separable slot
    c2 = [m for m in spec_pf5.nonconstant
          if m.family in (FamilyTag.XY, FamilyTag.F3, FamilyTag.F4)]
    assert len(c2) == 10
    assert sum(1 for m in c2 if m.family is FamilyTag.XY) == 1
    assert sum(1 for m in c2 if m.family is FamilyTag.F3) == 5
    assert sum(1 for m in c2 if m.family is FamilyTag.F4) == 4


def test_spectrum_sorted_and_unique(spec_pf5):
    deltas = [m.delta for m in spec_pf5.modes]
    assert deltas == sorted(deltas)
    keys = [m.key for m in spec_pf5.modes]
    assert len(set(keys)) == len(keys)
    assert spec_pf5.modes[0].family is FamilyTag.CONST
    # degenerate square pairs (equal frequency, different profile) are both kept
    by_family = {}
    for m in spec_pf5.nonconstant:
        by_family.setdefault(m.family, []).append(m.nu)
    assert by_family[FamilyTag.F1] == by_family[FamilyTag.F2]
    assert by_family[FamilyTag.F5] == by_family[FamilyTag.F8]
    assert by_family[FamilyTag.F6] == by_family[FamilyTag.F7]
    assert by_family[FamilyTag.F3][:4] == by_family[FamilyTag.F4]


def test_select_is_nested(spec_pf5):
    sub = spec_pf5.select(2)
    assert len(sub.modes) == 17
    keys5 = {m.key for m in spec_pf5.modes}
    assert all(m.key in keys5 for m in sub.modes)
    deltas = [m.delta for m in sub.modes]
    assert deltas == sorted(deltas)


def test_global_spectrum_by_count(square):
    spec = build_spectrum_by_count(square, 80)
    assert len(spec.nonconstant) == 80
    deltas = [m.delta for m in spec.nonconstant]
    assert deltas == sorted(deltas)
    sub = spec.select(2)  # first 16
    assert len(sub.nonconstant) == 16
    assert [m.key for m in sub.nonconstant] == [m.key for m in spec.nonconstant[:16]]


def test_global_policy_build(square):
    spec = build_spectrum(square, 2, GLOBAL_SORTED)
    assert len(spec.nonconstant) == 16
    assert spec.selection == GLOBAL_SORTED


def test_cache_roundtrip(spec_pf5):
    text = spectrum_to_json(spec_pf5)
    spec2 = spectrum_from_json(text)
    assert len(spec2.modes) == len(spec_pf5.modes)
    for a, b in zip(spec_pf5.modes, spec2.modes):
        assert a.key == b.key
        assert a.delta == b.delta
        assert a.norm_const == pytest.approx(b.norm_const, rel=1e-15)
    assert spec2.selection == spec_pf5.selection


@pytest.mark.parametrize(
    "h, selection, depth, m, sub_depth",
    [(1.0, GLOBAL_SORTED, 41, 3, 24), (0.6, GLOBAL_SORTED, 40, 2, 16), (1.0, PER_FAMILY, 5, 3, 3), (0.6, PER_FAMILY, 4, 2, 2)],
)
def test_depth_survives_cache_and_select(h, selection, depth, m, sub_depth):
    # depth is the per-family root depth M, or a global spectrum's retained count
    rect = Rectangle(h)
    spec = build_spectrum(rect, depth, PER_FAMILY) if selection == PER_FAMILY else build_spectrum_by_count(rect, depth)
    loaded = spectrum_from_json(spectrum_to_json(spec))
    assert spec.depth == loaded.depth == depth
    subs = [s.select(m) for s in (spec, loaded)]
    for sub in subs:
        assert sub.depth == sub_depth
        assert spectrum_from_json(spectrum_to_json(sub)).depth == sub_depth
    assert [md.key for md in subs[0].modes] == [md.key for md in subs[1].modes]
    if selection == GLOBAL_SORTED:
        assert len(subs[0].nonconstant) == sub_depth


def test_cache_rejects_corrupted_nu(spec_pf5):
    text = spectrum_to_json(spec_pf5)
    md = spec_pf5.nonconstant[0]
    bad = text.replace(format(md.nu, ".17g"), format(md.nu * 1.001, ".17g"), 1)
    with pytest.raises(SpectrumError):
        spectrum_from_json(bad)


def test_cache_rejects_empty_mode_list():
    with pytest.raises(SpectrumError):
        spectrum_from_json('{"h": 1.0, "selection": "global-sorted", "modes": []}')


def test_vectorized_value_matches_scalar(spec_pf5):
    rng = random.Random(11)
    xs = np.array([rng.uniform(-1, 1) for _ in range(40)])
    ys = np.array([rng.uniform(-1, 1) for _ in range(40)])
    (fx, fy), (dfx, dfy) = spec_pf5._factors(xs, ys, derivative=True)
    for j, md in enumerate(spec_pf5.nonconstant):
        arr = fx[j] * fy[j]
        want = np.array([ref.value(md, x, y) for x, y in zip(xs, ys)])
        assert np.abs(arr - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
        gx, gy = dfx[j] * fy[j], fx[j] * dfy[j]
        gref = np.array([ref.gradient(md, x, y) for x, y in zip(xs, ys)])
        assert np.abs(gx - gref[:, 0]).max() <= 1e-12 * max(1.0, np.abs(gref).max())
        assert np.abs(gy - gref[:, 1]).max() <= 1e-12 * max(1.0, np.abs(gref).max())
