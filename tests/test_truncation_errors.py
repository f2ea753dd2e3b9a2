"""The truncation-error sweep against the norms of each truncation's own error."""

import math

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    ProblemKind,
    QuadratureError,
    Rectangle,
    Side,
    boundary_l2,
    boundary_sup,
    build_spectrum,
    build_spectrum_by_count,
    builtin_boundary,
    exact_solution_for,
    solve,
)
from steklov.analysis import _truncation_errors

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
    sups, l2s = _truncation_errors(ref, u, subs)
    assert sups.shape == l2s.shape == (1 + len(subs),)
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
        sups, l2s = _truncation_errors(bad.value, u, subs)
    except QuadratureError:
        return
    assert np.isnan(sups).all(), sups
    assert not np.isfinite(l2s).any(), l2s


def test_nan_at_a_sampled_corner_makes_every_sup_nan(square_solve):
    # the sup nodes include the corners; the L2 nodes never reach them
    g, u, subs = square_solve
    bad = _with_nan(g, lambda side, x, y: (x == 1.0) & (y == 1.0))
    sups, l2s = _truncation_errors(bad.value, u, subs)
    assert np.isnan(sups).all(), sups
    assert np.allclose(l2s, _truncation_errors(g.value, u, subs)[1], rtol=1e-12, atol=0.0)
