"""Fixed-node boundary quadrature: the half-side node layout and its parity
fold, coefficients, two-level estimates, the adaptive fallback and the
Gram-matrix orthonormality check."""

import json

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    Rectangle,
    SIDES,
    Side,
    build_spectrum,
    build_spectrum_by_count,
    builtin_boundary,
    steklov_coefficients,
)
from steklov import boundary, spectrum
from steklov.boundary import mode_gram_matrix
from steklov.cli import main

DATA = ("f1", "f2", "f3", "bd1", "bd2", "bd3")


def reference_integrals(g_list, spec, breaks=None, points=32, width=4.0):
    """Raw integrals of each g against the constant and every mode, by
    uniform composite Gauss-Legendre panels of `points` nodes no wider than
    width / nu_max (plus extra breakpoints per side), summed 256 nodes at a time."""
    rect = spec.rectangle
    nu_max = max(md.nu for md in spec.modes[1:])
    nodes, weights = np.polynomial.legendre.leggauss(points)
    out = np.zeros((len(spec.modes), len(g_list)))
    for side in SIDES:
        lo, hi = rect.side_interval(side)
        n = int(np.ceil((hi - lo) * nu_max / width))
        edges = np.union1d(np.linspace(lo, hi, n + 1), (breaks or {}).get(side, []))
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * np.diff(edges)[:, None]
        t = (mid + half * nodes).ravel()
        w = (half * weights).ravel()
        wg = np.column_stack([w * g.value(side, t) for g in g_list])
        x, y = rect.side_point(side, t)
        out[0] += wg.sum(axis=0)
        for start in range(0, t.size, 256):
            block = slice(start, start + 256)
            out[1:] += spec.values(x[block], y[block]) @ wg[block]
    return out


ABSTOL, RELTOL = 1e-10, 1e-6


def panel_nodes(rect, side, nu_max, level):
    """All composite Gauss-Legendre nodes and weights of a side, one panel at a time."""
    lo, hi = rect.side_interval(side)
    breaks = boundary._panel_breaks(hi - lo, nu_max)
    if level:
        breaks = np.sort(np.r_[breaks, 0.5 * (breaks[:-1] + breaks[1:])])
    nodes, weights = np.polynomial.legendre.leggauss(boundary._PANEL_POINTS)
    t = np.concatenate([lo + a + 0.5 * (b - a) * (nodes + 1.0) for a, b in zip(breaks[:-1], breaks[1:])])
    w = np.concatenate([0.5 * (b - a) * weights for a, b in zip(breaks[:-1], breaks[1:])])
    return t, w


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1e-3])
@pytest.mark.parametrize("level", [0, 1])
def test_half_nodes_and_their_mirror_images_are_the_panel_nodes(h, level):
    rect = Rectangle(h)
    for nu_max in (0.0, 3.0, 200.0):
        for side, t, x, y, w in boundary._boundary_nodes(rect, nu_max, level):
            full_t, full_w = panel_nodes(rect, side, nu_max, level)
            assert (t > 0.0).all() and 2 * t.size == full_t.size
            order = np.argsort(np.r_[-t, t])
            assert np.abs(np.r_[-t, t][order] - np.sort(full_t)).max() <= 8e-16 * rect.side_interval(side)[1]
            assert np.abs(np.r_[w, w][order] - full_w[np.argsort(full_t)]).max() <= 1e-16
            if side is Side.G1:  # G1(t) = (1, t), G2(t) = (-t, h)
                assert x.tolist() == [1.0] and np.array_equal(y, t)
            else:
                assert np.array_equal(x, -t) and y.tolist() == [h]


def full_node_integrals(g, spec):
    """(K+1, 2) raw integrals per level as plain sums over the symmetric
    node set: on each side and its reflected side, the half nodes t of
    _boundary_nodes and their mirror images -t, with the same weights.
    Also the largest sum of |w * g * s| over the entries and levels, the
    scale of the rounding in the sums."""
    rect = spec.rectangle
    raw, magnitude = np.zeros((2, spec.size, 2))
    for level in (0, 1):
        for side, t, _, _, w in boundary._boundary_nodes(rect, spec.arrays.nu.max(), level):
            t, w = np.r_[t, -t], np.r_[w, w]
            for on in (side, boundary._REFLECTED[side]):
                s = np.vstack((np.ones(t.size), spec.values(*rect.side_point(on, t))))
                wg = w * g.value(on, t)
                raw[:, level] += s @ wg
                magnitude[:, level] += np.abs(s) @ np.abs(wg)
    return raw, magnitude.max()


FOLD_DATA = {
    # even and odd parts along every side
    "parities": lambda rect: BoundaryFunction.from_expression("exp(x)*sin(y) + x*y^2 + x^3", rect),
    "corners": lambda rect: BoundaryFunction.from_sides(
        rect, {Side.G1: lambda x, y: 1.0 + y, Side.G2: 2.0, Side.G3: lambda x, y: x * y - 3.0, Side.G4: -1.0}),
    "bd1": lambda rect: builtin_boundary("bd1", rect),
    "bd2": lambda rect: builtin_boundary("bd2", rect),
    "bd3": lambda rect: builtin_boundary("bd3", rect),
}


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1e-3])
@pytest.mark.parametrize("count", [41, 400])
def test_fold_matches_full_node_sums(h, count):
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, count)
    perim = rect.perimeter
    for name, make in FOLD_DATA.items():
        g = make(rect)
        plain, magnitude = full_node_integrals(g, spec)
        # not max |plain|: on h = 1e-3, bd1 cancels to about 0.006 of its magnitude, bd3 to rounding
        tol = 1e-14 * magnitude
        assert np.abs(boundary._fixed_node_integrals(g, spec) - plain).max() <= tol, name
        # every entry meets its target at the fixed nodes: no fallback
        co = steklov_coefficients(g, spec, ABSTOL, RELTOL)
        assert np.abs(np.r_[co.gbar, co.values] * perim - plain[:, 1]).max() <= tol, name
        assert np.abs(co.estimates * perim - np.abs(plain[:, 1] - plain[:, 0])).max() <= tol, name


def test_mode_factors_are_evaluated_at_half_the_nodes(monkeypatch):
    """Each level evaluates the factors along G1 and G2 at their t > 0 nodes,
    N/2 per side for N nodes, and the side's constant coordinate once per
    block of nodes."""
    rect = Rectangle(0.5)
    spec = build_spectrum_by_count(rect, 400)
    apply_kinds = spectrum._apply_kinds
    columns = []

    def counted(z, spans, derivative):
        columns.append(z.shape[1])
        return apply_kinds(z, spans, derivative)

    monkeypatch.setattr(spectrum, "_apply_kinds", counted)
    steklov_coefficients(builtin_boundary("f3", rect), spec)  # no fallback (test_smooth_data_need_no_fallback)
    along, constant = 0, 0
    for level in (0, 1):
        for side in (Side.G1, Side.G2):
            nodes = panel_nodes(rect, side, spec.arrays.nu.max(), level)[0].size
            along += nodes // 2
            constant += -(-(nodes // 2) // boundary._BLOCK)
    assert sum(c for c in columns if c > 1) == along
    assert columns.count(1) == constant


@pytest.fixture(scope="module", params=[1.0, 0.5, 0.1])
def case(request):
    """400-mode spectrum, refined-node reference coefficients and the
    fixed-node coefficients of every builtin data set."""
    rect = Rectangle(request.param)
    spec = build_spectrum_by_count(rect, 400)
    data = [builtin_boundary(name, rect) for name in DATA]
    ref = reference_integrals(data, spec) / rect.perimeter
    return spec, ref, [steklov_coefficients(g, spec, ABSTOL, RELTOL) for g in data]


def test_coefficients_match_refined_nodes(case):
    spec, ref, coeffs = case
    for k, co in enumerate(coeffs):
        got = np.r_[co.gbar, co.values]
        assert np.abs(got - ref[:, k]).max() <= 1e-12, DATA[k]


def test_estimates_within_their_targets(case):
    spec, _, coeffs = case
    perim = spec.rectangle.perimeter
    for k, co in enumerate(coeffs):
        values = np.abs(np.r_[co.gbar, co.values])
        targets = np.maximum(ABSTOL / perim, RELTOL * values)
        assert len(co.estimates) == len(spec.modes)
        assert (np.array(co.estimates) <= targets).all(), DATA[k]


def test_smooth_data_need_no_fallback(monkeypatch):
    rect = Rectangle(0.5)
    spec = build_spectrum_by_count(rect, 400)
    calls = []
    monkeypatch.setattr(boundary, "_integrate_panels", lambda *a, **k: calls.append(a))
    steklov_coefficients(builtin_boundary("f3", rect), spec)
    assert calls == []


def test_interior_kink_falls_back_only_where_needed(monkeypatch):
    rect = Rectangle(1.0)
    spec = build_spectrum(rect, 2)
    g = BoundaryFunction.from_expression("abs(x - 0.3)", rect)
    adaptive = boundary._integrate_panels
    entries = []

    def counted(*args, **kwargs):
        values, estimates = adaptive(*args, **kwargs)
        entries.append(len(values))
        return values, estimates

    monkeypatch.setattr(boundary, "_integrate_panels", counted)
    co = steklov_coefficients(g, spec, ABSTOL, RELTOL)
    # one fallback call, for some but not all entries
    assert len(entries) == 1 and 0 < entries[0] < len(spec.modes)

    # the kink sits at t = -0.3 on G2 (x = -t) and t = 0.3 on G4 (x = t)
    kinks = {Side.G2: [-0.3], Side.G4: [0.3]}
    perim = rect.perimeter
    ref = reference_integrals([g], spec, kinks)[:, 0] / perim
    got = np.r_[co.gbar, co.values]
    target = np.maximum(ABSTOL / perim, RELTOL * np.abs(ref))
    assert (np.abs(got - ref) <= target).all()


def test_kinked_data_fallback_is_accurate_and_cheap():
    """abs(x - 0.3) with 400 modes on the square: about a quarter of the
    entries miss the fixed-node estimate. The fallback meets each target
    against a reference split at the kink, and evaluates the data at far
    fewer points than one scalar adaptive run per entry did (about 487k)."""
    rect = Rectangle(1.0)
    spec = build_spectrum_by_count(rect, 400)
    points = [0]

    def kink(x, y):
        points[0] += np.size(x)
        return np.abs(x - 0.3)

    co = steklov_coefficients(BoundaryFunction.from_xy(kink, rect), spec, ABSTOL, RELTOL)
    assert points[0] <= 50_000

    kinks = {Side.G2: [-0.3], Side.G4: [0.3]}
    perim = rect.perimeter
    plain = BoundaryFunction.from_expression("abs(x - 0.3)", rect)
    ref = reference_integrals([plain], spec, kinks)[:, 0] / perim
    got = np.r_[co.gbar, co.values]
    target = np.maximum(ABSTOL / perim, RELTOL * np.abs(ref))
    assert (np.abs(got - ref) <= target).all()


def test_gram_matrix_is_identity():
    for rect, m in ((Rectangle(1.0), 5), (Rectangle(0.3), 4)):
        gram = mode_gram_matrix(build_spectrum(rect, m))
        assert gram.shape == (8 * m + 1, 8 * m + 1)
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-12


def test_check_thin_rectangle_orthonormality(tmp_path):
    report = tmp_path / "check.json"
    assert main(["check", "--h", "0.001", "--M", "3", "--json", str(report)]) == 0
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["boundary-orthonormality"]["worst"] <= 1e-8
