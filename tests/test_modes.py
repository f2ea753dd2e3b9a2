"""Mode evaluation on the kernel, normalization, spectra, and the cache file."""

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from steklov.cli import main
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
    assert md.key == ("const", 0.0)


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
    for family, norm in ((FamilyTag.CONST, 1.0), (FamilyTag.XY, math.sqrt(3.0))):
        md = make_mode(family, rect)
        assert md.hyp_scale == 0.0 and md.norm_scaled == pytest.approx(norm, rel=1e-15)


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
    for md in spec.modes[1:]:
        per_family[md.family] = per_family.get(md.family, 0) + 1
    assert all(v == 3 for v in per_family.values())


def test_square_class2_block_composition(spec_pf5):
    # xy leads class II and displaces the deepest separable slot
    c2 = [m for m in spec_pf5.modes[1:]
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
    for m in spec_pf5.modes[1:]:
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
    assert spec.size - 1 == 80
    deltas = [m.delta for m in spec.modes[1:]]
    assert deltas == sorted(deltas)
    sub = spec.select(2)  # first 16
    assert sub.size - 1 == 16
    assert [m.key for m in sub.modes[1:]] == [m.key for m in spec.modes[1:17]]


def test_global_policy_build(square):
    spec = build_spectrum_by_count(square, 16)  # the 8m smallest, m = 2
    assert spec.size - 1 == 16
    assert spec.selection == GLOBAL_SORTED


def test_cache_roundtrip(spec_pf5):
    text = spectrum_to_json(spec_pf5)
    spec2 = spectrum_from_json(text)
    assert len(spec2.modes) == len(spec_pf5.modes)
    for a, b in zip(spec_pf5.modes, spec2.modes):
        assert a.key == b.key
        assert a.delta == b.delta
        assert a.hyp_scale == pytest.approx(b.hyp_scale, rel=1e-15)
        assert a.norm_scaled == pytest.approx(b.norm_scaled, rel=1e-15)
    assert spec2.selection == spec_pf5.selection


@pytest.mark.parametrize(
    "h, selection, depth, m, sub_depth",
    [(1.0, GLOBAL_SORTED, 41, 3, 24), (0.6, GLOBAL_SORTED, 40, 2, 16), (1.0, PER_FAMILY, 5, 3, 3), (0.6, PER_FAMILY, 4, 2, 2)],
)
def test_depth_survives_cache_and_select(h, selection, depth, m, sub_depth):
    # depth is the per-family root depth M, or a global spectrum's retained count
    rect = Rectangle(h)
    spec = build_spectrum(rect, depth) if selection == PER_FAMILY else build_spectrum_by_count(rect, depth)
    loaded = spectrum_from_json(spectrum_to_json(spec))
    assert spec.depth == loaded.depth == depth
    subs = [s.select(m) for s in (spec, loaded)]
    for sub in subs:
        assert sub.depth == sub_depth
        assert spectrum_from_json(spectrum_to_json(sub)).depth == sub_depth
    assert [md.key for md in subs[0].modes] == [md.key for md in subs[1].modes]
    if selection == GLOBAL_SORTED:
        assert subs[0].size - 1 == sub_depth


def test_cache_rejects_corrupted_nu(spec_pf5):
    text = spectrum_to_json(spec_pf5)
    md = spec_pf5.modes[1]
    bad = text.replace(format(md.nu, ".17g"), format(md.nu * 1.001, ".17g"), 1)
    with pytest.raises(SpectrumError):
        spectrum_from_json(bad)


def with_norm_const(spec):
    """The cache text of spec in the older format, whose rows also list the
    unscaled normConst = norm_scaled * exp(-hyp_scale), as that writer computed it."""
    data = json.loads(spectrum_to_json(spec))
    for row, norm, scale in zip(data["modes"], spec.arrays.norm_scaled.tolist(), spec.arrays.hyp_scale.tolist()):
        row["normConst"] = norm * math.exp(-scale)
    return json.dumps(data)


def test_cache_lists_family_nu_and_delta(spec_pf5):
    rows = json.loads(spectrum_to_json(spec_pf5))["modes"]
    assert {tuple(row) for row in rows} == {("family", "nu", "delta")}
    assert [(row["nu"], row["delta"]) for row in rows] == list(zip(spec_pf5.arrays.nu.tolist(), spec_pf5.arrays.delta.tolist()))


def test_cache_with_norm_const_loads_to_the_same_arrays():
    # at h = 0.001 the unscaled normConst of the top modes underflows to 0.0
    spec = build_spectrum_by_count(Rectangle(0.001), 1000)
    text = with_norm_const(spec)
    assert sum(row["normConst"] == 0.0 for row in json.loads(text)["modes"]) >= 2
    for loaded in (spectrum_from_json(text), spectrum_from_json(spectrum_to_json(spec))):
        assert all(np.array_equal(a, b) for a, b in zip(loaded.arrays, spec.arrays))
        assert (loaded.selection, loaded.depth) == (spec.selection, spec.depth)


@pytest.mark.parametrize("column", ["delta", "normConst"])
def test_cache_rejects_corrupted_delta_or_norm_const(spec_pf5, column):
    data = json.loads(with_norm_const(spec_pf5))
    data["modes"][3][column] *= 1.001
    with pytest.raises(SpectrumError, match=f"cached {column}="):
        spectrum_from_json(json.dumps(data))


def test_cache_rejects_empty_mode_list():
    with pytest.raises(SpectrumError):
        spectrum_from_json('{"h": 1.0, "selection": "global-sorted", "modes": []}')


# A cache is refused unless its rows are the spectrum its h and selection
# define. Each edit below changes a cache in place and returns the first row
# the loader must name; an edit of a row the spectrum lacks returns None.


def family_rows(rows, family):
    return [i for i, row in enumerate(rows) if row["family"] == family]


def set_field(family, name, value):
    """The edit setting `name` of the first `family` row to value."""
    def edit(data, rng=None):
        found = family_rows(data["modes"], family)
        if found:
            data["modes"][found[0]][name] = value
            return found[0]
    return edit


def swap_f5_f8(data):
    rows = data["modes"]
    i, j = family_rows(rows, "f5")[0], family_rows(rows, "f8")[0]
    rows[i], rows[j] = rows[j], rows[i]
    return min(i, j)


def duplicate_first_f6(data):
    i = family_rows(data["modes"], "f6")[0]
    data["modes"].insert(i + 1, dict(data["modes"][i]))
    return i + 1


def delete_second_f6(data):
    i = family_rows(data["modes"], "f6")[1]
    del data["modes"][i]
    return i


def relabel_global(data):
    """Relabel a depth-5 per-family cache global: the first row that differs
    is the first where the two spectra of its size differ."""
    data["selection"] = GLOBAL_SORTED
    rect = Rectangle(data["h"])
    listed, claimed = build_spectrum(rect, 5).arrays, build_spectrum_by_count(rect, len(data["modes"]) - 1).arrays
    return int(np.flatnonzero((listed.code != claimed.code) | (listed.nu != claimed.nu))[0])


SAME_SIZE_EDITS = {
    "const-nu-nan": set_field("const", "nu", math.nan),
    "const-nu-3": set_field("const", "nu", 3),
    "const-delta-3": set_field("const", "delta", 3),
    "xy-nu-5": set_field("xy", "nu", 5),
    "f2-delta-nan": set_field("f2", "delta", math.nan),
}
CACHE_EDITS = {
    "f6-duplicated": duplicate_first_f6,
    "second-f6-deleted": delete_second_f6,
    "relabelled-global": relabel_global,
    **SAME_SIZE_EDITS,
    "f5-f8-swapped": swap_f5_f8,
}


@pytest.mark.parametrize("edit", CACHE_EDITS.values(), ids=CACHE_EDITS.keys())
def test_solve_refuses_a_cache_that_is_not_its_spectrum(tmp_path, capsys, spec_pf5, edit):
    # spec_pf5 is the cache `spectrum --h 1 --M 5` writes
    data = json.loads(spectrum_to_json(spec_pf5))
    row = edit(data)
    cache = tmp_path / "edited.json"
    cache.write_text(json.dumps(data))
    assert main(["solve", "--cache", str(cache), "--g", "builtin:f3", "--points", "paper", "--with-exact"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cache row {row}: ")


def separable_row(edit):
    """The edit `edit(row)` of a random separable row (f1..f8)."""
    def apply(data, rng):
        found = [i for i, row in enumerate(data["modes"]) if row["family"] not in ("const", "xy")]
        if found:
            i = rng.choice(found)
            edit(data["modes"][i])
            return i
    return apply


def swap_two_families(data, rng):
    """Swap a random row with a random row of another family."""
    rows = data["modes"]
    i = rng.randrange(len(rows))
    others = [j for j, row in enumerate(rows) if row["family"] != rows[i]["family"]]
    if others:
        j = rng.choice(others)
        rows[i], rows[j] = rows[j], rows[i]
        return min(i, j)


ROW_EDITS = {
    **SAME_SIZE_EDITS,
    "delta-nan": separable_row(lambda row: row.update(delta=math.nan)),
    "nu-scaled": separable_row(lambda row: row.update(nu=row["nu"] * (1.0 + 1e-9))),
    "families-swapped": swap_two_families,
}


@settings(max_examples=30, deadline=None)
@given(
    h=st.one_of(st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=1.0 - 1e-9, max_value=1.0), st.just(1.0)),
    truncation=st.one_of(st.tuples(st.just(PER_FAMILY), st.integers(1, 8)), st.tuples(st.just(GLOBAL_SORTED), st.integers(0, 300))),
    seed=st.integers(0, 2**32 - 1),
)
def test_cache_round_trip_is_bitwise_and_single_edits_are_refused(h, truncation, seed):
    rect, (selection, depth) = Rectangle(h), truncation
    spec = build_spectrum(rect, depth) if selection == PER_FAMILY else build_spectrum_by_count(rect, depth)
    text = spectrum_to_json(spec)
    loaded = spectrum_from_json(text)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(loaded.arrays, spec.arrays))
    assert (loaded.selection, loaded.depth) == (spec.selection, spec.depth)
    rng = random.Random(seed)
    for edit in ROW_EDITS.values():
        data = json.loads(text)
        row = edit(data, rng)
        if row is not None:
            with pytest.raises(SpectrumError, match=rf"^cache row {row}: "):
                spectrum_from_json(json.dumps(data))


def test_vectorized_value_matches_scalar(spec_pf5):
    rng = random.Random(11)
    xs = np.array([rng.uniform(-1, 1) for _ in range(40)])
    ys = np.array([rng.uniform(-1, 1) for _ in range(40)])
    (fx, fy), (dfx, dfy) = spec_pf5._factors(xs, ys, derivative=True)
    for j, md in enumerate(spec_pf5.modes[1:]):
        arr = fx[j] * fy[j]
        want = np.array([ref.value(md, x, y) for x, y in zip(xs, ys)])
        assert np.abs(arr - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
        gx, gy = dfx[j] * fy[j], fx[j] * dfy[j]
        gref = np.array([ref.gradient(md, x, y) for x, y in zip(xs, ys)])
        assert np.abs(gx - gref[:, 0]).max() <= 1e-12 * max(1.0, np.abs(gref).max())
        assert np.abs(gy - gref[:, 1]).max() <= 1e-12 * max(1.0, np.abs(gref).max())
