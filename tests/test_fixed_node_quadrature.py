"""Fixed-node boundary quadrature: coefficients, two-level estimates, the
adaptive fallback and the Gram-matrix orthonormality check."""

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
from steklov import boundary
from steklov.boundary import mode_gram_matrix
from steklov.cli import main

DATA = ("f1", "f2", "f3", "bd1", "bd2", "bd3")


def reference_integrals(g_list, spec, breaks=None, points=32, width=4.0):
    """Raw integrals of each g against the constant and every mode, by
    uniform composite Gauss-Legendre panels of `points` nodes no wider than
    width / nu_max (plus extra breakpoints per side), summed 256 nodes at a time."""
    rect = spec.rectangle
    nu_max = max(md.nu for md in spec.nonconstant)
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
