import math

import pytest

from steklov import GeometryError, Rectangle, Side, SIDES


CORNERS = ((1.0, 0.5), (-1.0, 0.5), (-1.0, -0.5), (1.0, -0.5))  # of Rectangle(0.5)


def test_perimeter_and_corners():
    r = Rectangle(0.8)
    assert r.perimeter == 4.0 * 1.8
    ends = {r.side_point(side, r.side_interval(side)[1]) for side in SIDES}
    assert ends == {(1.0, 0.8), (-1.0, 0.8), (-1.0, -0.8), (1.0, -0.8)}


@pytest.mark.parametrize("h", [0.0, -0.2, 1.5, math.inf, math.nan])
def test_bad_aspect_ratio_rejected(h):
    with pytest.raises(GeometryError):
        Rectangle(h)


@pytest.mark.parametrize("h, rule", [(0.0, "positive"), (-0.2, "positive"), (1.5, "h <= 1"),
                                     (math.inf, "a finite number"), (-math.inf, "a finite number"),
                                     (math.nan, "a finite number")])
def test_bad_aspect_ratio_names_its_rule(h, rule):
    with pytest.raises(GeometryError, match=rule):
        Rectangle(h)


def test_side_lengths_sum_to_perimeter():
    r = Rectangle(0.37)
    assert sum(hi - lo for lo, hi in map(r.side_interval, SIDES)) == pytest.approx(r.perimeter, rel=1e-15)


def test_counterclockwise_parametrization():
    r = Rectangle(0.5)
    assert r.side_point(Side.G1, -0.5) == (1.0, -0.5)
    assert r.side_point(Side.G1, 0.5) == (1.0, 0.5)
    assert r.side_point(Side.G2, -1.0) == (1.0, 0.5)
    assert r.side_point(Side.G2, 1.0) == (-1.0, 0.5)
    assert r.side_point(Side.G3, -0.5) == (-1.0, 0.5)
    assert r.side_point(Side.G3, 0.5) == (-1.0, -0.5)
    assert r.side_point(Side.G4, -1.0) == (-1.0, -0.5)
    assert r.side_point(Side.G4, 1.0) == (1.0, -0.5)


def test_side_parameter_domain():
    r = Rectangle(0.5)
    with pytest.raises(GeometryError):
        r.side_point(Side.G1, 0.51)


def test_require_inside_takes_the_closed_rectangle():
    r = Rectangle(0.5)
    for x, y in CORNERS + ((0.0, 0.0), (-0.3, 0.5)):
        r.require_inside(x, y)
    for x, y in ((1.0000001, 0.0), (0.0, -0.51), (math.nan, 0.0)):
        with pytest.raises(GeometryError, match="outside the closed rectangle"):
            r.require_inside(x, y)


def test_side_point_on_arrays_matches_scalar():
    import numpy as np

    r = Rectangle(0.5)
    for side in SIDES:
        lo, hi = r.side_interval(side)
        ts = np.linspace(lo, hi, 7)
        xs, ys = r.side_point(side, ts)
        assert xs.shape == ys.shape == ts.shape
        assert [(x, y) for x, y in zip(xs.tolist(), ys.tolist())] == [
            r.side_point(side, t) for t in ts.tolist()
        ]


@pytest.mark.parametrize("h", [1.0, 0.5])
def test_side_parameter_inverts_side_point(h):
    """side_parameter(side, *side_point(side, t)) is t, for floats and arrays, on every side."""
    import numpy as np

    r = Rectangle(h)
    for side in SIDES:
        ts = np.linspace(*r.side_interval(side), 9)
        assert np.array_equal(r.side_parameter(side, *r.side_point(side, ts)), ts)
        for t in ts.tolist():
            x, y = r.side_point(side, t)
            assert r.side_parameter(side, x, y) == t
            assert r.side_point(side, r.side_parameter(side, x, y)) == (x, y)


@pytest.mark.parametrize("bad", [0.51, -0.5000001, math.nan])
def test_array_side_parameter_domain(bad):
    import numpy as np

    r = Rectangle(0.5)
    with pytest.raises(GeometryError):
        r.side_point(Side.G1, np.array([-0.5, 0.0, bad, 0.5]))
