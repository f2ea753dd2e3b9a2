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


def test_corner_params_cover_both_sides():
    r = Rectangle(0.5)
    for corner in CORNERS:
        params = r.corner_params(corner)
        assert len(params) == 2
        for side, t in params.items():
            assert r.side_point(side, t) == corner


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


@pytest.mark.parametrize("bad", [0.51, -0.5000001, math.nan])
def test_array_side_parameter_domain(bad):
    import numpy as np

    r = Rectangle(0.5)
    with pytest.raises(GeometryError):
        r.side_point(Side.G1, np.array([-0.5, 0.0, bad, 0.5]))
