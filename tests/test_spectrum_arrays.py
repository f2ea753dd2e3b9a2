"""The array spectrum builder against the scalar root finder and mode maker.

The scalar path of scalar_reference (find_roots, make_mode and the old sort
key over a pool of candidate modes) is the reference: the array builder must
keep the same modes in the same order, with nu within the root tolerance and
delta to rounding, and the public one-family functions must agree with it.
"""

import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import steklov
from steklov import FamilyTag, Rectangle, build_spectrum, build_spectrum_by_count
from steklov.analysis import SCALING_TOL, STEKLOV_RESIDUAL_TOL, check_scaling, check_steklov_residual
from steklov import spectrum as spectrum_module
from steklov.spectrum import SpectrumError, spectrum_from_json, spectrum_to_json

import scalar_reference as ref

SEPARABLE = list(ref._FAMILIES)
HS = [1.0, 0.8, 0.5, 0.1, 1e-3]
COUNTS = [1, 8, 41, 400, 2000]
TOL = 1e-12  # the root tolerance of find_roots and of the builders


def by_family(spec):
    """The nonconstant separable modes of spec, per family, in spectrum order."""
    out = {family: [] for family in SEPARABLE}
    for md in spec.modes[1:]:
        if md.family in out:
            out[md.family].append(md)
    return out


def reference_modes(rect, roots_per_family, count):
    """The `count` smallest modes of a scalar pool, in the old sort order.

    The pool holds xy (on the square) and the first roots_per_family[f]
    roots of each family f, from find_roots and make_mode.
    """
    pool = [ref.make_mode(FamilyTag.XY, rect)] if rect.is_square and count > 0 else []
    for family in SEPARABLE:
        for rank, nu in enumerate(ref.find_roots(family, rect, roots_per_family[family], TOL)):
            pool.append(ref.make_mode(family, rect, nu, family_rank=rank))
    pool.sort(key=lambda md: (md.delta, md.family.order, md.nu))
    return pool[:count]


def assert_same_modes(got, want):
    assert [(md.family, md.family_rank) for md in got] == [(md.family, md.family_rank) for md in want]
    for g, w in zip(got, want):
        assert abs(g.nu - w.nu) <= TOL
        assert abs(g.delta - w.delta) <= TOL * w.delta
        assert g.norm_scaled == pytest.approx(w.norm_scaled, rel=1e-12)
        assert g.hyp_scale == pytest.approx(w.hyp_scale, rel=1e-12)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("h", HS)
def test_global_build_matches_scalar_reference(h, count):
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, count)
    assert [md.index for md in spec.modes] == list(range(count + 1))
    kept = by_family(spec)
    for family, modes in kept.items():
        roots = ref.find_roots(family, rect, len(modes), TOL)
        assert [md.family_rank for md in modes] == list(range(len(modes)))
        for md, nu in zip(modes, roots):
            assert abs(md.nu - nu) <= TOL
            assert abs(md.delta - ref.eigenvalue_of(family, nu, rect)) <= TOL * md.delta
    # delta increases with nu within a family, so a pool that holds one root
    # more than was kept of every family selects like the pool of `count`
    # roots per family
    depth = {family: min(len(modes) + 1, count) for family, modes in kept.items()}
    assert_same_modes(spec.modes[1:], reference_modes(rect, depth, count))


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("h", HS)
def test_per_family_build_matches_scalar_reference(h, m):
    rect = Rectangle(h)
    spec = build_spectrum(rect, m)
    depth = {family: m for family in SEPARABLE}
    if rect.is_square:
        depth[FamilyTag.F4] = m - 1  # xy takes the first slot of the class-II block
    want = reference_modes(rect, depth, 10**9)
    assert_same_modes(spec.modes[1:], want)
    assert [md.index for md in spec.modes] == list(range(len(spec.modes)))


def test_saturated_branches_take_the_bracket_end():
    # where tanh rounds to 1 the root sits within an ulp of a bracket end and
    # both ends have the same sign; a sign-change search alone would fail there
    rect = Rectangle(1.0)
    saturated = set()
    for family, modes in by_family(build_spectrum_by_count(rect, 400)).items():
        info = ref._FAMILIES[family]
        a_t, a_h = ref._axis_extents(info, rect)
        lo, hi, k_start, extra = ref._branch_layout(info, a_t, a_h)
        for md, nu in zip(modes, ref.find_roots(family, rect, len(modes), TOL)):
            k = k_start + md.family_rank - int(extra)
            if ref._char_local(info, a_t, a_h, k, lo)[0] * ref._char_local(info, a_t, a_h, k, hi)[0] > 0.0:
                saturated.add((family, k))
                assert md.nu == nu
                assert md.nu in ((k * math.pi + lo) / a_t, (k * math.pi + hi) / a_t)
    assert (FamilyTag.F1, 7) in saturated


@pytest.mark.parametrize("family", SEPARABLE)
@pytest.mark.parametrize("h", HS)
def test_public_eigendata_match_scalar_reference(h, family):
    rect = Rectangle(h)
    roots = steklov.find_roots(family, rect, 300, TOL)
    want = ref.find_roots(family, rect, 300, TOL)
    assert max(abs(a - b) for a, b in zip(roots, want)) <= TOL
    for rank, nu in enumerate(want[:: 23]):
        md, md_ref = steklov.make_mode(family, rect, nu, rank), ref.make_mode(family, rect, nu, rank)
        assert abs(md.delta - md_ref.delta) <= TOL * md_ref.delta and md.hyp_scale == md_ref.hyp_scale
        assert md.norm_scaled == pytest.approx(md_ref.norm_scaled, rel=1e-12)
        assert md.norm_scaled * math.exp(-md.hyp_scale) == pytest.approx(ref.boundary_norm_constant(family, nu, rect), rel=1e-12, abs=1e-300)


def test_public_eigendata_keep_their_errors():
    rect = Rectangle(0.5)
    for family in (FamilyTag.CONST, FamilyTag.XY):
        with pytest.raises(SpectrumError):
            steklov.find_roots(family, rect, 2)
    with pytest.raises(SpectrumError):
        steklov.make_mode(FamilyTag.XY, rect)
    with pytest.raises(ValueError):
        steklov.find_roots(FamilyTag.F2, rect, -1)
    with pytest.raises(ValueError):
        steklov.find_roots(FamilyTag.F2, rect, 1, tol=1e-15)
    for nu in (0.0, -1.0):
        with pytest.raises(ValueError):
            steklov.make_mode(FamilyTag.F5, rect, nu)


@pytest.mark.parametrize("h, count", [(0.8, 41), (0.5, 41), (0.1, 41), (1e-3, 2000)])
def test_extra_f3_branch_below_the_square(h, count):
    # its root has nu * h just below pi / 4: delta about 785 at h = 0.001
    rect = Rectangle(h)
    first = by_family(build_spectrum_by_count(rect, count))[FamilyTag.F3][0]
    assert first.family_rank == 0
    assert 0.0 < first.nu * h <= math.pi / 4.0
    assert abs(first.nu - ref.find_roots(FamilyTag.F3, rect, 1, TOL)[0]) <= TOL


@pytest.mark.parametrize("count", [1000, 2000])
def test_thin_rectangle_keeps_no_f1_or_f7(count):
    kept = by_family(build_spectrum_by_count(Rectangle(1e-3), count))
    assert kept[FamilyTag.F1] == [] and kept[FamilyTag.F7] == []
    assert sum(map(len, kept.values())) == count


@pytest.mark.parametrize("family", ["f1", "f3", "f5"])
@pytest.mark.parametrize("nu", [0.0, -1.0, math.inf])
def test_cache_rejects_nonpositive_or_infinite_nu(family, nu):
    data = json.loads(spectrum_to_json(build_spectrum_by_count(Rectangle(0.7), 10)))
    next(row for row in data["modes"] if row["family"] == family)["nu"] = nu
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((SpectrumError, ValueError)):
            spectrum_from_json(json.dumps(data))


@settings(max_examples=60, deadline=None)
@given(h=st.floats(min_value=1e-3, max_value=1.0) | st.floats(min_value=3.0, max_value=15.0).map(lambda u: 1.0 - 10.0**-u),
       count=st.integers(min_value=0, max_value=500))
def test_global_build_properties(h, count):
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, count)
    assert spec.size - 1 == count
    deltas = [md.delta for md in spec.modes]
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))
    for family, modes in by_family(spec).items():
        assert all(b.nu > a.nu for a, b in zip(modes, modes[1:]))
        for md in modes:
            resid, scale = ref.char_residual(family, md.nu, rect)
            assert abs(resid) <= 10.0 * TOL * scale
    for check in (check_steklov_residual(spec, STEKLOV_RESIDUAL_TOL, random.Random(count)),
                  check_scaling(spec, SCALING_TOL)):
        assert check.passed, check.line()


def full_table_spectrum(rect, count):
    """build_spectrum_by_count as it selected its branches before prefixes:
    the bounds of the first `count` branches of every family, the count-th
    smallest upper bound (xy's delta 1 included on the square) as the
    cutoff, and every branch whose lower bound is within it solved."""
    sm = spectrum_module
    code, rank, k, lo, hi = sm._branch_table(rect, [count if tag.is_separable else 0 for tag in FamilyTag])
    if count:
        a_t = sm._extents(code, rect)[0]
        lower, upper = (sm._eigenvalues(code, (k * math.pi + theta) / a_t, rect) for theta in (lo, hi))
        cutoff = np.partition(np.append(upper, 1.0) if rect.is_square else upper, count - 1)[count - 1]
        solve = lower <= cutoff * (1.0 + 1e-12)
        code, rank, k, lo, hi = (c[solve] for c in (code, rank, k, lo, hi))
    nu = sm._solve_branches(code, k, lo, hi, rect, sm._ROOT_TOL)
    return sm._spectrum_of_roots(rect, code, rank, nu, count, sm.GLOBAL_SORTED, count)


@pytest.mark.parametrize("h", [1.0, 1.0 - 1e-9, 0.8, 0.5, 0.1, 1e-3])
def test_branch_prefixes_build_the_full_table_spectrum(monkeypatch, h):
    """The same ModeArrays, array by array and bit for bit, from tables of
    at most 2 * count + 64 branches (the full table holds 8 * count)."""
    rect = Rectangle(h)
    branch_table = spectrum_module._branch_table
    sizes = []

    def counted(rect, counts):
        table = branch_table(rect, counts)
        sizes.append(table[0].size)
        return table

    for count in (0, 1, 7, 8, 9, 41, 400, 3000):
        want = full_table_spectrum(rect, count).arrays
        monkeypatch.setattr(spectrum_module, "_branch_table", counted)
        sizes.clear()
        got = build_spectrum_by_count(rect, count).arrays
        monkeypatch.setattr(spectrum_module, "_branch_table", branch_table)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, count
            assert np.array_equal(a.view(np.int64) if a.dtype == float else a, b.view(np.int64) if b.dtype == float else b), count
        assert sizes and max(sizes) <= 2 * count + 64, (count, sizes)
        # on the thin rectangle F2 and F8 hold about count / 2 modes each: their prefixes double
        assert len(sizes) == (2 if h == 1e-3 and count >= 41 else 1), (count, sizes)
