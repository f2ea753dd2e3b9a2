"""Fixed-node boundary quadrature: the Gauss-Kronrod rule, the half-side
node layout and its parity fold, coefficients, their Kronrod-minus-Gauss
estimates, the adaptive fallback and the Gram-matrix orthonormality check.

Each panel of a side carries the 49 nodes of the Gauss-Kronrod extension
K49 of the 24-point Gauss-Legendre rule G24, whose nodes are among them.
A side is cut into the fewest equal panels, an even number, no wider than
_PANEL_WIDTH / nu, so its midpoint t = 0 is a breakpoint and no node (K49
has one at each panel centre) sits there. A coefficient is the K49 sum, its
estimate |K49 - G24|."""

import json
import math

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    QuadratureError,
    Rectangle,
    SIDES,
    Side,
    build_spectrum,
    build_spectrum_by_count,
    builtin_boundary,
    corner_bilinear_reduction,
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


def test_kronrod_rule_is_exact_to_degree_73():
    # exactness to degree 3 * 24 + 1 with the 24 Gauss nodes among its own
    # defines the 49-point Kronrod extension uniquely
    nodes, kronrod, gauss = boundary._kronrod_rule()
    moments = kronrod @ np.polynomial.legendre.legvander(nodes, 74)
    exact = np.r_[2.0, np.zeros(74)]
    assert np.abs(moments - exact)[:74].max() <= 4e-15
    assert abs(moments[74]) > 1e-6


def test_kronrod_rule_extends_leggauss_24():
    nodes, kronrod, gauss = boundary._kronrod_rule()
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(24)
    assert nodes.shape == kronrod.shape == gauss.shape == (49,)
    assert np.array_equal(nodes[1::2], gl_nodes) and np.array_equal(gauss[1::2], gl_weights)
    assert (gauss[::2] == 0.0).all()
    assert (kronrod > 0.0).all()
    assert (np.abs(nodes) < 1.0).all() and (np.diff(nodes) > 0.0).all()


def panel_nodes(rect, side, nu):
    """All composite Gauss-Kronrod nodes of a side, one panel at a time,
    with their Gauss weights (row 0) and Kronrod weights (row 1)."""
    lo, hi = rect.side_interval(side)
    breaks = boundary._panel_breaks(hi - lo, nu)
    nodes, kronrod, gauss = boundary._kronrod_rule()
    panels = list(zip(breaks[:-1], breaks[1:]))
    t = np.concatenate([lo + a + 0.5 * (b - a) * (nodes + 1.0) for a, b in panels])
    w = np.concatenate([0.5 * (b - a) * np.stack((gauss, kronrod)) for a, b in panels], axis=1)
    return t, w


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1e-3])
@pytest.mark.parametrize("rule", [0, 1])  # the Gauss weights, the Kronrod weights
def test_half_nodes_and_their_mirror_images_are_the_panel_nodes(h, rule):
    rect = Rectangle(h)
    # side lengths 2 and 2h. nu 16.5 and 158: the top frequencies of 41 and
    # 400 modes on the square, 316 the Gram's at 400 modes, 4712 the top
    # frequency of 12000 modes. nu 40: three panels of at most 32 / nu would
    # cover a side of length 2, the middle one with its centre node at
    # t = 0; the count is even (four), so t = 0 is a break there as
    # everywhere
    for nu in (0.0, 3.0, 16.5, 40.0, 158.0, 200.0, 316.0, 4712.0):
        for side, t, x, y, *weights in boundary._boundary_nodes(rect, nu):
            full_t, full_w = panel_nodes(rect, side, nu)
            length = 2.0 * rect.side_interval(side)[1]
            breaks = boundary._panel_breaks(length, nu)
            n = breaks.size - 1
            assert n % 2 == 0 and breaks[0] == 0.0 and breaks[-1] == length
            assert np.abs(np.diff(breaks) - length / n).max() <= 4e-16 * length
            if nu == 0.0:
                assert n == 2
            else:
                assert length / n <= boundary._PANEL_WIDTH / nu
                assert n == 2 or length / (n - 2) > boundary._PANEL_WIDTH / nu  # two fewer would be too wide
            assert abs(breaks[n // 2] - 0.5 * length) <= 4e-16 * length
            # the nodes nearest t = 0 are the end nodes of the two middle panels
            end_gap = (1.0 - boundary._kronrod_rule()[0][-1]) * 0.5 * length / n
            assert np.abs(full_t).min() == pytest.approx(end_gap, rel=1e-6)
            assert (t > 0.0).all() and 2 * t.size == full_t.size
            order = np.argsort(np.r_[-t, t])
            assert np.abs(np.r_[-t, t][order] - np.sort(full_t)).max() <= 8e-16 * length
            w = weights[rule]
            assert np.abs(np.r_[w, w][order] - full_w[rule, np.argsort(full_t)]).max() <= 1e-16
            if side is Side.G1:  # G1(t) = (1, t), G2(t) = (-t, h)
                assert x.tolist() == [1.0] and np.array_equal(y, t)
            else:
                assert np.array_equal(x, -t) and y.tolist() == [h]


def full_node_integrals(g, spec, nu=None):
    """(K+1, 2) raw integrals by the Gauss and the Kronrod weights, as plain
    sums over the symmetric node set for top frequency nu (default nu_max):
    on each side and its reflected side, the half nodes t of _boundary_nodes
    and their mirror images -t, with the same weights. Also the largest sum
    of |w * g * s| over the entries and rules, the scale of the rounding in
    the sums."""
    rect = spec.rectangle
    nu = spec.arrays.nu.max() if nu is None else nu
    raw, magnitude = np.zeros((2, spec.size, 2))
    for side, t, _, _, *weights in boundary._boundary_nodes(rect, nu):
        t = np.r_[t, -t]
        w = np.column_stack([np.r_[v, v] for v in weights])
        for on in (side, boundary._REFLECTED[side]):
            s = np.vstack((np.ones(t.size), spec.values(*rect.side_point(on, t))))
            wg = w * g.value(on, t)[:, None]
            raw += s @ wg
            magnitude += np.abs(s) @ np.abs(wg)
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
        assert np.abs(boundary._fixed_node_integrals([g], spec)[0] - plain).max() <= tol, name
        # every entry meets its target at the fixed nodes: no fallback
        co = steklov_coefficients(g, spec, ABSTOL, RELTOL)
        assert np.abs(np.r_[co.gbar, co.values] * perim - plain[:, 1]).max() <= tol, name
        assert np.abs(co.estimates * perim - np.abs(plain[:, 1] - plain[:, 0])).max() <= tol, name


WIDE_DATA = {
    "f1": lambda rect: builtin_boundary("f1", rect),
    "f2": lambda rect: builtin_boundary("f2", rect),
    "f3": lambda rect: builtin_boundary("f3", rect),
    "bd3": lambda rect: builtin_boundary("bd3", rect, 1.0),
    "exp(x)*cos(y)": lambda rect: BoundaryFunction.from_expression("exp(x)*cos(y)", rect),
}


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1e-3])
@pytest.mark.parametrize("count", [41, 400])
def test_one_trace_panels_match_finer_nodes(monkeypatch, h, count):
    # a coefficient integrand, one trace times the data, turns through at
    # most _PANEL_WIDTH radians on a panel of _PANEL_WIDTH / nu_max; the
    # reference is the Kronrod sum over the node set for 2 * nu_max, whose
    # panels are half as wide
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, count)
    fallbacks = []
    monkeypatch.setattr(boundary, "_integrate_panels", lambda *a, **k: fallbacks.append(a))
    for name, make in WIDE_DATA.items():
        g = make(rect)
        finer, magnitude = full_node_integrals(g, spec, 2 * spec.arrays.nu.max())
        co = steklov_coefficients(g, spec, ABSTOL, RELTOL)
        assert fallbacks == [], name
        assert np.abs(np.r_[co.gbar, co.values] * rect.perimeter - finer[:, 1]).max() <= 1e-14 * magnitude, name


@pytest.mark.parametrize("h, count, nodes", [(1.0, 400, (490, 980)), (0.5, 400, (539, 1029)), (1.0, 41, (98, 196))],
                         ids=["1.0", "0.5", "1.0-41"])
def test_400_mode_coefficient_and_gram_node_counts(h, count, nodes):
    # the coefficient nodes (t > 0) and the Gram's nodes for 2 * nu_max
    rect = Rectangle(h)
    nu_max = build_spectrum_by_count(rect, count).arrays.nu.max()
    coefficient_nodes = sum(t.size for _, t, *_ in boundary._boundary_nodes(rect, nu_max))
    gram_nodes = sum(t.size for _, t, *_ in boundary._boundary_nodes(rect, 2 * nu_max))
    assert (coefficient_nodes, gram_nodes) == nodes


def integrals_by_64_nodes(g, spec):
    """_fixed_node_integrals of g alone, with Spectrum.values evaluated on
    64 nodes per call."""
    rect = spec.rectangle
    odd, sigma = boundary._parities(spec)
    raw = np.zeros((spec.size, 2))
    for side, t, x, y, gauss, kronrod in boundary._boundary_nodes(rect, spec.arrays.nu.max()):
        both = np.r_[t, -t]
        (gp, gm), (rp, rm) = (g.value(on, both).reshape(2, -1) for on in (side, boundary._REFLECTED[side]))
        f = np.column_stack((gp + gm, rp + rm, gp - gm, rp - rm))
        folded = np.hstack((gauss[:, None] * f, kronrod[:, None] * f))
        sums = np.zeros((spec.size, 8))
        sums[0] = folded.sum(axis=0)
        for start in range(0, t.size, 64):
            block = slice(start, start + 64)
            sums[1:] += spec.values(x if x.size == 1 else x[block], y if y.size == 1 else y[block]) @ folded[block]
        for rule, cols in enumerate((sums[:, :4], sums[:, 4:])):
            pair = np.where(odd[:, boundary._ALONG[side], None], cols[:, 2:], cols[:, :2])
            raw[:, rule] += pair[:, 0] + sigma * pair[:, 1]
    return raw


def gram_by_64_nodes(spec):
    """mode_gram_matrix with Spectrum.values evaluated on 64 nodes per call,
    on the nodes for products of two traces (top frequency 2 * nu_max),
    with their Kronrod weights."""
    rect = spec.rectangle
    odd, _ = boundary._parities(spec)
    classes = [np.flatnonzero(2 * odd[:, 0] + odd[:, 1] == c) for c in range(4)]
    out = np.zeros((spec.size, spec.size))
    for rows in classes:
        gram = np.zeros((rows.size, rows.size))
        for _, t, x, y, _, w in boundary._boundary_nodes(rect, 2 * spec.arrays.nu.max()):
            for start in range(0, t.size, 64):
                block = slice(start, start + 64)
                s = spec.values(x if x.size == 1 else x[block], y if y.size == 1 else y[block])
                sc = np.vstack((np.ones(s.shape[1]), s))[rows]
                gram += (sc * w[block]) @ sc.T
        out[np.ix_(rows, rows)] = gram * (4.0 / rect.perimeter)
    return out


@pytest.mark.parametrize("h", [1.0, 0.5, 1e-3])
@pytest.mark.parametrize("count", [41, 400])
def test_blocks_give_the_sums_of_64_node_evaluations(h, count):
    # 41 modes: Spectrum.values on 384 nodes per call; 400 modes: on 64
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, count)
    data = [make(rect) for make in FOLD_DATA.values()]
    for name, g, raw in zip(FOLD_DATA, data, boundary._fixed_node_integrals(data, spec)):
        assert np.array_equal(raw, integrals_by_64_nodes(g, spec)), name
    assert np.array_equal(mode_gram_matrix(spec), gram_by_64_nodes(spec))


SKIP_DATA = {
    # even in x and y: only class I is live
    "bd2": lambda rect: builtin_boundary("bd2", rect),
    # even in y: classes I and IV
    "f2-corner": lambda rect: corner_bilinear_reduction(builtin_boundary("f2", rect), rect)[-1],
    "exp(x)*cos(y)": lambda rect: BoundaryFunction.from_expression("exp(x)*cos(y)", rect),
    # odd in y: classes II and III
    "bd3": lambda rect: builtin_boundary("bd3", rect, 1.0),
    # odd under the point reflection: classes III and IV
    "bd1": lambda rect: builtin_boundary("bd1", rect),
    # no symmetry: every class
    "f3": lambda rect: builtin_boundary("f3", rect),
    # even in x and y up to parity noise at the Kronrod-only nodes, where
    # only the K49 sums of class III differ from 0
    "f1": lambda rect: builtin_boundary("f1", rect),
}


@pytest.mark.parametrize("skip", [boundary._SKIP_ENTRIES, 0], ids=["cost-rule", "always"])
@pytest.mark.parametrize("h", [1.0, 1.0 - 1e-9, 0.5, 0.1])
@pytest.mark.parametrize("count", [41, 400])
def test_skipped_classes_keep_every_sum_bit_for_bit(monkeypatch, skip, h, count):
    # the reference evaluates every mode; skip 0 skips every cancelled class,
    # also where the cost rule would not
    monkeypatch.setattr(boundary, "_SKIP_ENTRIES", skip)
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, count)
    for name, make in SKIP_DATA.items():
        g = make(rect)
        assert np.array_equal(boundary._fixed_node_integrals([g], spec)[0], integrals_by_64_nodes(g, spec)), name
    # a class is skipped only where it cancels for every data of the batch
    mixed = [SKIP_DATA["f3"](rect), SKIP_DATA["bd2"](rect)]
    for name, g, raw in zip(("f3", "bd2"), mixed, boundary._fixed_node_integrals(mixed, spec)):
        assert np.array_equal(raw, integrals_by_64_nodes(g, spec)), name


def evaluated_rows(monkeypatch, g, spec):
    """The number of modes each Spectrum.values call of a coefficient set of g
    evaluates, per side: G1 (one x for all nodes) or G2."""
    values = spectrum.Spectrum.values
    rows = []

    def counted(self, x, y, derivative=False):
        rows.append(("G1" if np.size(x) == 1 else "G2", self.size - 1))
        return values(self, x, y, derivative)

    monkeypatch.setattr(spectrum.Spectrum, "values", counted)
    steklov_coefficients(g, spec)
    monkeypatch.setattr(spectrum.Spectrum, "values", values)
    return sorted(set(rows))


def test_symmetric_data_evaluate_only_their_live_classes(monkeypatch):
    # bd2 is even in x and y, so only class I (even along both axes) is
    # live on either side; f3 has no symmetry and evaluates every mode
    rect = Rectangle(0.5)
    spec = build_spectrum_by_count(rect, 400)
    odd, _ = boundary._parities(spec)
    per_class = np.bincount(2 * odd[1:, 0] + odd[1:, 1], minlength=4)
    assert per_class.tolist() == [100, 100, 100, 100]
    assert evaluated_rows(monkeypatch, builtin_boundary("bd2", rect), spec) == [("G1", 100), ("G2", 100)]
    assert evaluated_rows(monkeypatch, builtin_boundary("f3", rect), spec) == [("G1", 400), ("G2", 400)]
    # 41 modes on 49 nodes per side: below the cost rule, every mode
    small = build_spectrum_by_count(rect, 41)
    assert evaluated_rows(monkeypatch, builtin_boundary("bd2", rect), small) == [("G1", 41), ("G2", 41)]
    # a side skips only what drops _SKIP_ENTRIES entries: with the rule at
    # 350 modes' worth of G1's nodes, G1 would drop 300 modes' worth, and
    # evaluates every mode
    g1_nodes, g2_nodes = [t.size for _, t, *_ in boundary._boundary_nodes(rect, spec.arrays.nu.max())]
    monkeypatch.setattr(boundary, "_SKIP_ENTRIES", 350 * g1_nodes)
    assert 300 * g2_nodes >= boundary._SKIP_ENTRIES
    assert evaluated_rows(monkeypatch, builtin_boundary("bd2", rect), spec) == [("G1", 400), ("G2", 100)]


def spiked_bd2(spec, value, sides):
    """bd2, even in x and y, but for the value at the first Gauss node of G1
    (t > 0), on G1 if in sides, and at its point reflection on G3 if in sides."""
    rect = spec.rectangle
    _, t, _, _, gauss, _ = next(boundary._boundary_nodes(rect, spec.arrays.nu.max()))
    node = t[gauss > 0][0]
    maps = dict(builtin_boundary("bd2", rect).side_maps)
    for side, y0 in ((Side.G1, node), (Side.G3, -node)):  # G1(t) = (1, t), G3(t) = (-1, -t)
        if side in sides:
            maps[side] = lambda x, y, fn=maps[side], y0=y0: np.where(y == y0, value, fn(x, y))
    return BoundaryFunction(rect, maps)


def coefficients_or_error(g, spec):
    try:
        co = steklov_coefficients(g, spec)
    except QuadratureError as exc:
        return str(exc)
    return co.gbar, co.values, co.estimates


def test_nan_sides_do_not_bisect_the_finite_sides():
    """The fallback's targets take |I| over the finite panels only: the NaN
    sides fail to converge, and the finite sides are evaluated on the fixed
    nodes and on the fallback's first panels, never bisected."""
    rect = Rectangle(0.5)
    spec = build_spectrum_by_count(rect, 400)
    counted = {side: 0 for side in SIDES}

    def side_map(side, value):
        def fn(x, y):
            counted[side] += np.size(x)
            return np.full(np.shape(x), value)
        return fn

    values = {Side.G1: np.nan, Side.G2: 1.0, Side.G3: np.nan, Side.G4: 1.0}
    g = BoundaryFunction(rect, {side: side_map(side, v) for side, v in values.items()})
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureError) as err:
        steklov_coefficients(g, spec)
    assert err.value.side in (Side.G1, Side.G3) and err.value.floor is None
    assert err.value.reason.endswith("no convergence within 200 panel bisections")
    nu_max = spec.arrays.nu.max()
    for side in (Side.G2, Side.G4):
        assert counted[side] == 2 * panel_nodes(rect, side, nu_max)[0].size


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("where", ["G1-node", "G1-G3-node", "G1-G3"])
def test_non_finite_data_end_as_without_the_skip(monkeypatch, value, where):
    # an inf at the node on G1 and at its reflection on G3 makes the even
    # columns of G1 equal, inf at the same row under both rules, and the
    # class IV sums inf - inf = NaN with every mode evaluated: a column
    # that is not finite never cancels. G2 and G4 are symmetric and skip.
    # The fallback's bisected panels miss the node and give finite
    # coefficients; with G1 and G3 all inf or NaN it raises
    rect = Rectangle(0.5)
    spec = build_spectrum_by_count(rect, 400)
    if where == "G1-G3":
        g = BoundaryFunction.from_sides(rect, {Side.G1: value, Side.G2: -1.0, Side.G3: value, Side.G4: -1.0})
    else:
        g = spiked_bd2(spec, value, (Side.G1, Side.G3) if where == "G1-G3-node" else (Side.G1,))
    outcomes = []
    with np.errstate(invalid="ignore"):
        # every class that cancels skipped, then every class evaluated
        for skip in (0, math.inf):
            monkeypatch.setattr(boundary, "_SKIP_ENTRIES", skip)
            outcomes.append((boundary._fixed_node_integrals([g], spec)[0], coefficients_or_error(g, spec)))
        reference = integrals_by_64_nodes(g, spec)
    (raw, got), (raw_all, want) = outcomes
    assert not np.isfinite(raw).all()
    assert np.array_equal(raw, raw_all, equal_nan=True) and np.array_equal(raw, reference, equal_nan=True)
    assert isinstance(want, str) == (where == "G1-G3")
    if isinstance(want, str):
        assert got == want
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_evaluation_blocks_are_whole_64_node_blocks_within_the_entry_budget(monkeypatch):
    # 16384 mode x node entries: 6 blocks of 64 nodes at 41 modes, 1 from 256 modes on
    rect = Rectangle(0.5)
    calls = []
    values = spectrum.Spectrum.values

    def counted(self, x, y):
        out = values(self, x, y)
        calls.append(out.shape[1])
        return out

    monkeypatch.setattr(spectrum.Spectrum, "values", counted)
    for count, step in ((41, 384), (255, 64), (256, 64), (400, 64)):
        spec = build_spectrum_by_count(rect, count)
        x, y = np.array([1.0]), np.linspace(-0.5, 0.5, 1000)
        calls.clear()
        slices = list(spec._mode_blocks(x, y))
        assert calls == [step] * (1000 // step) + [1000 % step], count
        assert [b.start for b, _ in slices] == list(range(0, 1000, 64))
        assert all(s.shape == (count, min(64, 1000 - b.start)) for b, s in slices)


def test_coefficient_sets_equal_single_calls(monkeypatch):
    # the kinked data take the fallback, the smooth ones do not
    rect = Rectangle(1.0)
    spec = build_spectrum(rect, 2)
    data = [builtin_boundary("f1", rect), BoundaryFunction.from_expression("abs(x - 0.3)", rect),
            builtin_boundary("bd2", rect)]
    single = [steklov_coefficients(g, spec, ABSTOL, RELTOL) for g in data]
    adaptive = boundary._integrate_panels
    fallbacks = []

    def counted(*args, **kwargs):
        fallbacks.append(args[1])
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(boundary, "_integrate_panels", counted)
    batch = boundary._coefficient_sets(data, spec, ABSTOL, RELTOL)
    assert len(fallbacks) == 1
    for g, one, co in zip(data, single, batch):
        assert co.spectrum is spec
        assert co.gbar == one.gbar, g.name
        assert np.array_equal(co.values, one.values), g.name
        assert np.array_equal(co.estimates, one.estimates), g.name


def test_coefficient_sets_keep_the_checks_of_single_calls():
    spec = build_spectrum(Rectangle(1.0), 2)
    data = [builtin_boundary("f1", Rectangle(1.0)), builtin_boundary("f1", Rectangle(0.5))]
    with pytest.raises(ValueError, match="different rectangles"):
        boundary._coefficient_sets(data, spec, ABSTOL, RELTOL)
    for abstol, reltol in ((0.0, RELTOL), (ABSTOL, -1.0), (np.nan, RELTOL), (ABSTOL, np.inf)):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            boundary._coefficient_sets(data[:1], spec, abstol, reltol)


def test_mode_factors_are_evaluated_at_half_the_nodes(monkeypatch):
    """The one node set evaluates the factors along G1 and G2 at their t > 0
    nodes, N/2 per side for N nodes, and the side's constant coordinate
    once per block of nodes."""
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
    for side in (Side.G1, Side.G2):
        nodes = panel_nodes(rect, side, spec.arrays.nu.max())[0].size
        along += nodes // 2
        constant += -(-(nodes // 2) // spectrum._BLOCK)
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


def corner_singular_reference(spec, points=32, width=4.0):
    """Raw integrals of sqrt(|1 - x^2|) against the constant and every mode.

    The data vanish on G1 and G3 (x = +-1). On G2 and G4 (y = +-h) the
    substitution x = sin(theta) turns sqrt(1 - x^2) dx into cos(theta)^2
    dtheta, a smooth integrand on [-pi/2, pi/2] whose top frequency is at
    most nu_max: uniform composite Gauss-Legendre panels of `points` nodes
    no wider than width / nu_max."""
    rect = spec.rectangle
    n = int(np.ceil(np.pi * spec.arrays.nu.max() / width))
    nodes, weights = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n + 1)
    half = 0.5 * np.diff(edges)[:, None]
    theta = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
    w = (half * weights).ravel() * np.cos(theta) ** 2
    out = np.zeros(spec.size)
    for y in (rect.h, -rect.h):
        out[0] += w.sum()
        for start in range(0, theta.size, 256):
            block = slice(start, start + 256)
            out[1:] += spec.values(np.sin(theta[block]), np.full(w[block].size, y)) @ w[block]
    return out


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("count", [41, 400])
def test_corner_singular_data_meet_their_targets(h, count):
    # square-root singularities at all four corners: the corner panels are
    # as wide as the others, and the fallback bisects toward the corners
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, count)
    g = BoundaryFunction.from_expression("sqrt(abs(1 - x^2))", rect)
    co = steklov_coefficients(g, spec, ABSTOL, RELTOL)
    perim = rect.perimeter
    ref = corner_singular_reference(spec) / perim
    assert ref[0] == pytest.approx(np.pi / perim, rel=1e-14)
    target = np.maximum(ABSTOL / perim, RELTOL * np.abs(ref))
    assert (np.abs(np.r_[co.gbar, co.values] - ref) <= target).all()


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
