"""Failure channels and less-traveled options."""

import math

import numpy as np
import pytest

from steklov import (
    BoundaryFunction,
    QuadratureError,
    Rectangle,
    build_spectrum,
    builtin_boundary,
    integrate_boundary,
    robin_bound,
    robin_dnorm_tail_sq,
    steklov_coefficients,
)
from steklov.cli import main
from steklov.tables import POLICY_PREFIX, TableWorkspace


def test_panel_budget_exhaustion_carries_partial_value():
    rect = Rectangle(1.0)
    wiggly = BoundaryFunction.from_xy(lambda x, y: math.sin(300.0 * (x + 2 * y)), rect)
    with pytest.raises(QuadratureError) as err:
        integrate_boundary(wiggly, abstol=1e-13, reltol=1e-12, limit=1)
    assert err.value.side is not None
    # a smooth integrand far from its target is not blamed on rounding
    assert str(err.value).startswith("no convergence within 1 panel bisections") and err.value.floor is None
    assert math.isfinite(err.value.partial_value)


def test_coefficient_failure_names_the_mode():
    rect = Rectangle(1.0)
    spec = build_spectrum(rect, 1)
    jagged = BoundaryFunction.from_xy(lambda x, y: math.sin(500.0 * x * y + y), rect)
    with pytest.raises(QuadratureError) as err:
        steklov_coefficients(jagged, spec, abstol=1e-14, reltol=1e-13, limit=1)
    assert "quadrature failed" in str(err.value)


@pytest.mark.parametrize("data", ["nan above y = 0.5", "jagged"])
def test_coefficient_failure_states_the_side_once(data):
    # the side clause carries the raised per-perimeter partial value and estimate
    rect = Rectangle(1.0)
    spec = build_spectrum(rect, 1)
    if data == "jagged":
        g = BoundaryFunction.from_xy(lambda x, y: math.sin(500.0 * x * y + y), rect)
    else:
        g = BoundaryFunction.from_xy(lambda x, y: np.where(y > 0.5, np.nan, x), rect)
    with pytest.raises(QuadratureError) as err:
        steklov_coefficients(g, spec, abstol=1e-14, reltol=1e-13, limit=1)
    exc = err.value
    assert str(exc).count(" on G") == 1, str(exc)
    assert str(exc).endswith(f" on {exc.side.name} (partial value {exc.partial_value:.6g}, "
                             f"error estimate {exc.estimate:.3g})")


def test_deep_per_family_spectrum_flat_rectangle():
    spec = build_spectrum(Rectangle(0.5), 10)
    deltas = [m.delta for m in spec.modes]
    assert len(deltas) == 81
    assert deltas == sorted(deltas)
    assert deltas[-1] > 10.0 * deltas[1]


def test_neumann_study_reports_b0_bound():
    # robin_bound at b = 0 is the Neumann bound of the workspace's series-prefix
    # truncations: positive, falling with M, and above the graph-norm gap it bounds
    ws = TableWorkspace()
    co = ws.coefficients(builtin_boundary("bd1", Rectangle(1.0)), ws.deep_spectrum(1.0))
    kept = [ws.truncation(1.0, "neumann", m, POLICY_PREFIX).size - 1 for m in (1, 2)]
    bounds = [robin_bound(co, 0.0, n) for n in kept]
    assert bounds[0] > bounds[1] > 0.0
    for n, bound in zip(kept, bounds):
        assert robin_dnorm_tail_sq(co, 0.0, n) <= bound


def test_cli_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5,0.5\n0.0,0.0\n")
    out = tmp_path / "vals.csv"
    rc = main(["solve", "--g", "builtin:f1", "--h", "1", "--M", "2",
               "--points", f"file:{pts}", "--points-out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == pytest.approx(-0.25, abs=2e-4)


def test_cli_json_points_format(tmp_path, capsys):
    rc = main(["solve", "--g", "builtin:f1", "--h", "1", "--M", "1",
               "--points", "paper", "--format", "json"])
    assert rc == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 5 and set(payload[0]) == {"x", "y", "u"}


def test_cli_17_digit_grid(tmp_path):
    out = tmp_path / "g17.csv"
    rc = main(["solve", "--g", "builtin:f2", "--h", "1", "--M", "1",
               "--grid", "3", "--out", str(out), "--digits", "17"])
    assert rc == 0
    cell = out.read_text().splitlines()[1].split(",")[2]
    assert float(cell) == float(format(float(cell), ".17g"))
    assert len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 15
