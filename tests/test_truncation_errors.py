"""The truncation-error sweep against the norms of each truncation's own error."""

import math

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    ProblemKind,
    QuadratureError,
    Rectangle,
    SIDES,
    Side,
    boundary_l2,
    boundary_sup,
    build_spectrum,
    build_spectrum_by_count,
    builtin_boundary,
    exact_solution_for,
    solve,
)
from steklov import analysis, spectrum
from steklov.analysis import _truncation_errors
from steklov.tables import TableWorkspace

RTOL = 1e-12

# data, kind, reference: the data itself (Dirichlet) or the exact solution's trace
CASES = (
    ("f1", ProblemKind.dirichlet()),
    ("bd3", ProblemKind.robin(1.0)),
    ("bd1", ProblemKind.neumann()),  # x + y: zero boundary mean, so the exact solution is the reference
)


def _base_and_subs(rect: Rectangle, kind: ProblemKind, policy: str):
    """The base spectrum and its truncations at M = 2, 3, 5, as the tables take them."""
    if policy == "prefix":
        base = build_spectrum_by_count(rect, 41)
        extra = 0 if kind.name == "neumann" else 1
        return base, [base.head(8 * m - extra) for m in (2, 3, 5)]
    base = build_spectrum(rect, 5)
    return base, [base.select(m) for m in (2, 3, 5)]


@pytest.mark.parametrize("policy", ["prefix", "per-family"])
@pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("name, kind", CASES, ids=[c[0] for c in CASES])
def test_sweep_equals_the_norms_of_each_truncation(name, kind, h, policy):
    rect = Rectangle(h)
    g = builtin_boundary(name, rect, kind.b or None)
    ref = g.value if kind.name == "dirichlet" else BoundaryFunction.from_xy(exact_solution_for(name).value, rect).value
    base, subs = _base_and_subs(rect, kind, policy)
    u = solve(kind, g, base)
    [(sups, l2s)] = _truncation_errors([(ref, u)], subs)
    assert sups.shape == l2s.shape == (1 + len(subs),)
    _assert_own_norms(sups, l2s, ref, u, subs)


def _assert_own_norms(sups, l2s, ref, u, subs):
    """sups and l2s are boundary_sup and boundary_l2 of ref and of ref - u|sub per sub, to RTOL."""
    rect = u.rect
    want = [(boundary_sup(ref, rect), boundary_l2(ref, rect))]
    for sub in subs:
        diff = lambda side, t, v=u.restrict(sub): ref(side, t) - v.boundary_value(side, t)
        want.append((boundary_sup(diff, rect), boundary_l2(diff, rect)))
    for i, (sup, l2) in enumerate(want):
        assert sup > 0.0 and l2 > 0.0
        assert math.isclose(sups[i], sup, rel_tol=RTOL, abs_tol=0.0), (i, sups[i], sup)
        assert math.isclose(l2s[i], l2, rel_tol=RTOL, abs_tol=0.0), (i, l2s[i], l2)


def _with_nan(g: BoundaryFunction, where) -> BoundaryFunction:
    """g with NaN at the (side, x, y) points where `where` holds."""
    def side_map(side):
        fn = g.side_maps[side]
        return lambda x, y: np.where(where(side, x, y), np.nan, fn(x, y))

    return BoundaryFunction(g.rect, {side: side_map(side) for side in g.side_maps}, g.name)


@pytest.fixture(scope="module")
def square_solve():
    rect = Rectangle(1.0)
    g = builtin_boundary("f2", rect)
    base = build_spectrum_by_count(rect, 41)
    return g, solve(ProblemKind.dirichlet(), g, base), [base.head(15), base.head(23)]


def test_nan_on_a_side_never_gives_a_finite_entry(square_solve):
    g, u, subs = square_solve
    bad = _with_nan(g, lambda side, x, y: np.full(np.shape(x), side is Side.G2))
    try:
        [(sups, l2s)] = _truncation_errors([(bad.value, u)], subs)
    except QuadratureError:
        return
    assert np.isnan(sups).all(), sups
    assert not np.isfinite(l2s).any(), l2s


def test_nan_at_a_sampled_corner_makes_every_sup_nan(square_solve):
    # the sup nodes include the corners; the L2 nodes never reach them
    g, u, subs = square_solve
    bad = _with_nan(g, lambda side, x, y: (x == 1.0) & (y == 1.0))
    [(sups, l2s)] = _truncation_errors([(bad.value, u)], subs)
    assert np.isnan(sups).all(), sups
    assert np.allclose(l2s, _truncation_errors([(g.value, u)], subs)[0][1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("policy", ["prefix", "per-family", "global-sorted"])
@pytest.mark.parametrize("h", [1.0, 0.8, 0.5])
def test_batched_sweep_equals_the_one_pair_sweeps(h, policy):
    # the tables' batch at one height: f1, f2 and f3 over one base spectrum
    ws = TableWorkspace()
    rect = Rectangle(h)
    base = ws.base_spectrum(h, policy)
    subs = [ws.truncation(h, "dirichlet", m, policy) for m in (2, 3, 5)]
    pairs = [(g.value, solve(ProblemKind.dirichlet(), g, base))
             for g in (builtin_boundary(name, rect) for name in ("f1", "f2", "f3"))]
    batched = _truncation_errors(pairs, subs)
    assert len(batched) == len(pairs)
    for pair, (sups, l2s) in zip(pairs, batched):
        [(own_sups, own_l2s)] = _truncation_errors([pair], subs)
        assert np.array_equal(sups, own_sups) and np.array_equal(l2s, own_l2s), (sups - own_sups, l2s - own_l2s)


def _four_side_sweep(pairs, subs):
    """_truncation_errors with the modes evaluated on every side, G3 and G4
    included, by one expand per pair."""
    base = pairs[0][1].spectrum
    rect = base.rectangle
    masks = np.zeros((len(subs), base.size - 1))
    for mask, sub in zip(masks, subs):
        mask[base.rows_of(sub)[1:] - 1] = 1.0

    def errors(side, t):
        out = np.empty((len(pairs), 1 + len(subs), t.size))
        x, y = rect.side_point(side, t)
        x, y = (x[:1], y) if side.is_vertical else (x, y[:1])
        for (ref, u), rows in zip(pairs, out):
            s = base.expand(u.weights * masks, x, y)
            rows[0] = ref(side, t)
            np.subtract(rows[0], u._constant_and_lift(x, y) + s, out=rows[1:])
        return out.reshape(-1, t.size)

    sups = np.max([np.abs(errors(side, ts)).max(axis=1) for side, ts in analysis._sup_nodes(rect)], axis=0)
    l2s = analysis._boundary_l2s(errors, rect, sups.size)
    return list(zip(sups.reshape(len(pairs), -1), l2s.reshape(len(pairs), -1)))


def _assert_same_sweeps(got, want):
    assert len(got) == len(want)
    for (sups, l2s), (want_sups, want_l2s) in zip(got, want):
        assert np.array_equal(sups, want_sups), sups - want_sups
        assert np.array_equal(l2s, want_l2s), l2s - want_l2s


@pytest.mark.parametrize("policy", ["prefix", "per-family", "global-sorted"])
@pytest.mark.parametrize("h", [1.0, 0.8, 0.5])
def test_mirrored_sides_equal_evaluated_sides(h, policy):
    # the tables' batch of f1-f3 at one height: G3 and G4 from the blocks of G1 and G2
    ws = TableWorkspace()
    rect = Rectangle(h)
    base = ws.base_spectrum(h, policy)
    subs = [ws.truncation(h, "dirichlet", m, policy) for m in (2, 3, 5)]
    pairs = [(g.value, solve(ProblemKind.dirichlet(), g, base))
             for g in (builtin_boundary(name, rect) for name in ("f1", "f2", "f3"))]
    _assert_same_sweeps(_truncation_errors(pairs, subs), _four_side_sweep(pairs, subs))


def _counted_values(monkeypatch):
    """The number of nodes Spectrum.values is evaluated on from here on, as a one-item list."""
    values = spectrum.Spectrum.values
    nodes = [0]

    def counted(self, x, y):
        out = values(self, x, y)
        nodes[0] += out.shape[1]
        return out

    monkeypatch.setattr(spectrum.Spectrum, "values", counted)
    return nodes


def test_a_sweep_evaluates_the_modes_on_half_its_nodes(monkeypatch, square_solve):
    g, u, subs = square_solve
    ref, sides = _counting(g.value)
    evaluated = _counted_values(monkeypatch)
    _truncation_errors([(ref, u)], subs)
    assert sum(sides) > 4 * 1001  # the sup nodes and the L2 panels
    assert 2 * evaluated[0] == sum(sides)


def test_sides_split_otherwise_than_their_reflections_are_evaluated(monkeypatch):
    # |y - 0.3| on G3 only (t = -y there): the L2 panels of G3 are bisected
    # toward the kink, those of G1 are not
    rect = Rectangle(1.0)
    g = BoundaryFunction.from_sides(rect, {Side.G1: lambda x, y: y * y, Side.G2: lambda x, y: x,
                                           Side.G3: lambda x, y: np.abs(y - 0.3), Side.G4: lambda x, y: -x})
    base = build_spectrum_by_count(rect, 41)
    u = solve(ProblemKind.dirichlet(), g, base)
    subs = [base.head(15), base.head(23), base.head(39)]
    ref, sides = _counting(g.value)
    evaluated = _counted_values(monkeypatch)
    got = _truncation_errors([(ref, u)], subs)
    assert 2 * evaluated[0] > sum(sides)  # some calls on G3 were evaluated
    monkeypatch.undo()
    _assert_same_sweeps(got, _four_side_sweep([(g.value, u)], subs))
    [(sups, l2s)] = got
    _assert_own_norms(sups, l2s, g.value, u, subs)


def _counting(ref):
    """A counting wrapper of ref, and the list that receives the number of nodes of each of its calls."""
    calls = []

    def counted(side, t):
        calls.append(t.size)
        return ref(side, t)

    return counted, calls


def test_batch_refined_for_one_member_keeps_every_entry_exact():
    # a narrow bump on G2 makes the panels of its pair finer than f1 needs alone
    rect = Rectangle(1.0)
    base = build_spectrum_by_count(rect, 41)
    subs = [base.head(15), base.head(23), base.head(39)]
    smooth = builtin_boundary("f1", rect)
    bump = BoundaryFunction.from_xy(lambda x, y: np.exp(-200.0 * ((x - 0.3) ** 2 + (y - 1.0) ** 2)), rect, "bump")
    us = [solve(ProblemKind.dirichlet(), g, base) for g in (smooth, bump)]
    in_batch, batch_nodes = _counting(smooth.value)
    batched = _truncation_errors([(in_batch, us[0]), (bump.value, us[1])], subs)
    alone, own_nodes = _counting(smooth.value)
    _truncation_errors([(alone, us[0])], subs)
    assert sum(batch_nodes) > sum(own_nodes)  # the smooth data's panels are finer in the batch
    for (g, u), (sups, l2s) in zip(zip((smooth, bump), us), batched):
        _assert_own_norms(sups, l2s, g.value, u, subs)


@pytest.fixture(scope="module")
def kinked_solve():
    # |x - 0.3| + y has a kink in G2 (at t = -0.3) and in G4 (at t = 0.3)
    rect = Rectangle(1.0)
    g = BoundaryFunction.from_xy(lambda x, y: np.abs(x - 0.3) + y, rect)
    base = build_spectrum_by_count(rect, 41)
    return g, solve(ProblemKind.dirichlet(), g, base), {k: base.head(k) for k in (15, 23, 39)}


def _kink_split_l2(fn, rect):
    """boundary_l2 of fn by scipy's quad, with G2 and G4 split at the kink."""
    from scipy.integrate import quad

    sq = 0.0
    for side in SIDES:
        kink = {Side.G2: [-0.3], Side.G4: [0.3]}.get(side)
        sq += quad(lambda t: fn(side, t) ** 2, *rect.side_interval(side), points=kink,
                   epsabs=1e-15, epsrel=1e-12, limit=200)[0]
    return math.sqrt(sq / rect.perimeter)


def _truncation_error(g, u, sub):
    return lambda side, t, v=u.restrict(sub): g.value(side, t) - v.boundary_value(side, t)


@pytest.mark.parametrize("k", [15, 23, 39])
def test_kinked_truncation_error_converges(kinked_solve, k):
    # its bisection reaches panels next to the kink whose midpoint rounds onto an end
    g, u, subs = kinked_solve
    error = _truncation_error(g, u, subs[k])
    assert boundary_l2(error, u.rect) == pytest.approx(_kink_split_l2(error, u.rect), rel=1e-9, abs=0.0)


def test_kinked_sweep_converges(kinked_solve):
    g, u, subs = kinked_solve
    [(_, l2s)] = _truncation_errors([(g.value, u)], list(subs.values()))
    want = [_kink_split_l2(_truncation_error(g, u, sub), u.rect) for sub in subs.values()]
    np.testing.assert_allclose(l2s[1:], want, rtol=1e-9, atol=0.0)


def test_pairs_over_different_base_spectra_are_refused():
    rect = Rectangle(0.5)
    g = builtin_boundary("f2", rect)
    deep, per_family = build_spectrum_by_count(rect, 41), build_spectrum(rect, 5)
    pairs = [(g.value, solve(ProblemKind.dirichlet(), g, spec)) for spec in (deep, per_family)]
    with pytest.raises(ValueError, match="share one base spectrum"):
        _truncation_errors(pairs, [deep.head(15)])
