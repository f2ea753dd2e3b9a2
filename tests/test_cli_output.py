"""CLI numeric CSVs against a reference writer, and the memory of a large grid.

The reference writes each row through `csv.writer`, formats every value with
`format(v, f".{digits}g")` and takes exact solutions from `math` formulas
evaluated point by point. The CLI formats column arrays and evaluates exact
solutions with numpy, whose log, exp and sin may differ from `math` by an
ulp, so the exact and error columns are compared within that; every other
column, and every file without them, must be byte-identical.

The vectorised cell formatter (`cells.float_cells`) is held to Python's `%`
on adversarial values, and the writer to the reference on mixed, one-row and
empty blocks, on table files (text, int, float and bool columns) and to the
row template on whole grids.
"""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from steklov import Rectangle, build_spectrum_by_count, builtin_boundary, grid_points
from steklov import cells, cli
from steklov.cli import main
from steklov.solvers import solve_dirichlet, solve_neumann, solve_robin
from steklov.tables import TableWorkspace, reproduce_table

COUNT = 24
GRID = 13
POINTS = [(0.5, 0.5), (0.0, 0.0), (-0.3, 0.2), (0.99, -0.41), (1.0, 0.25), (-1.0, -0.5)]

REFERENCE_EXACT = {
    "f1": lambda x, y: x**4 - 6.0 * x * x * y * y + y**4,
    "f2": lambda x, y: (2.0 - x) / ((2.0 - x) * (2.0 - x) + y * y),
    "f3": lambda x, y: 0.5 * math.log((x - 3.0) ** 2 + (y - 3.0) ** 2),
    "bd1": lambda x, y: x + y,  # zero boundary mean on every rectangle
    "bd3": lambda x, y: math.exp(x) * math.sin(y),
}
CASES = [("f1", "dirichlet"), ("f2", "dirichlet"), ("f3", "dirichlet"), ("bd1", "neumann"), ("bd3", "robin")]


def _fmt(x, digits):
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        return format(x, f".{digits}g")
    return str(x)


def reference_csv(rows, digits) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    for row in rows:
        w.writerow([_fmt(v, digits) for v in row])
    return out.getvalue()


def reference_solution_files(name, kind, h, digits, with_exact):
    """The grid and point CSVs, written row by row through csv.writer."""
    rect = Rectangle(h)
    spec = build_spectrum_by_count(rect, COUNT)
    g = builtin_boundary(name, rect, 1.0 if kind == "robin" else None)
    u = {"dirichlet": lambda: solve_dirichlet(g, spec), "neumann": lambda: solve_neumann(g, spec),
         "robin": lambda: solve_robin(g, 1.0, spec)}[kind]()
    exact = REFERENCE_EXACT[name]
    header = ["x", "y", "u"] + (["exact", "error"] if with_exact else [])

    def row(x, y, value):
        if not with_exact:
            return [x, y, value]
        e = exact(x, y)
        return [x, y, value, e, value - e]

    U = u.eval_grid(GRID, GRID)
    X, Y = grid_points(rect, GRID, GRID)
    grid = [header] + [row(float(X[i, j]), float(Y[i, j]), float(U[i, j]))
                       for i in range(GRID) for j in range(GRID)]
    points = [header] + [row(x, y, float(u.eval(x, y))) for x, y in POINTS if abs(y) <= h]
    return reference_csv(grid, digits), reference_csv(points, digits)


def _digit_unit(text, digits):
    """One unit in the last printed digit of a %.{digits}g number."""
    v = abs(float(text))
    return 0.0 if v == 0.0 else 10.0 ** (math.floor(math.log10(v)) - digits + 1)


def assert_same_table(got, want, digits):
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows)
    for g, w in zip(got_rows[1:], want_rows[1:]):
        assert g[:3] == w[:3]
        if len(w) == 3:
            continue
        u, e, err = (float(v) for v in g[2:])
        e_ref, err_ref = float(w[3]), float(w[4])
        # exact: an ulp at the scale of the formula's O(1) terms, plus the printed rounding
        ulp = np.spacing(max(abs(e_ref), 1.0))
        assert abs(e - e_ref) <= ulp + _digit_unit(g[3], digits), (g, w)
        assert abs(err - err_ref) <= ulp + _digit_unit(g[4], digits) + _digit_unit(w[4], digits), (g, w)
        if digits == 17:  # 17 digits round-trip, so error is exactly u - exact
            assert err == u - e


@pytest.mark.parametrize("digits", ["6", "17"])
@pytest.mark.parametrize("h", ["1", "0.5"])
@pytest.mark.parametrize("name, kind", CASES)
def test_grid_and_point_files_match_the_reference_writer(tmp_path, name, kind, h, digits):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in POINTS if abs(y) <= float(h)))
    for with_exact in (False, True):
        grid_csv, points_csv = tmp_path / "grid.csv", tmp_path / "points.csv"
        argv = ["solve", "--g", f"builtin:{name}", "--kind", kind, "--h", h, "--count", str(COUNT),
                "--digits", digits, "--grid", str(GRID), "--out", str(grid_csv),
                "--points", f"file:{pts}", "--points-out", str(points_csv)]
        argv += ["--b", "1"] * (kind == "robin") + ["--with-exact"] * with_exact
        assert main(argv) == 0
        want_grid, want_points = reference_solution_files(name, kind, float(h), int(digits), with_exact)
        if with_exact:
            assert_same_table(grid_csv.read_text(), want_grid, int(digits))
            assert_same_table(points_csv.read_text(), want_points, int(digits))
        else:
            assert grid_csv.read_text() == want_grid
            assert points_csv.read_text() == want_points


@pytest.mark.parametrize("digits", ["6", "17"])
@pytest.mark.parametrize("h", ["1", "0.6"])
def test_spectrum_listing_matches_the_reference_writer(tmp_path, h, digits):
    listing = tmp_path / "s.csv"
    assert main(["spectrum", "--h", h, "--count", "120", "--digits", digits,
                 "--out", str(tmp_path / "s.json"), "--csv", str(listing)]) == 0
    spec = build_spectrum_by_count(Rectangle(float(h)), 120)
    rows = [("index", "family", "nu", "delta")]
    rows += [(md.index, md.family.value, md.nu, md.delta) for md in spec.modes]
    assert listing.read_text() == reference_csv(rows, int(digits))


def test_coefficient_echo_matches_the_reference_writer(capsys):
    assert main(["solve", "--g", "builtin:f3", "--h", "0.9", "--count", "30", "--digits", "17",
                 "--print-coefficients", "--points", "paper", "--points-out", "-"]) == 0
    echo = capsys.readouterr().out.split("x,y,u\n")[0]
    rect = Rectangle(0.9)
    spec = build_spectrum_by_count(rect, 30)
    u = solve_dirichlet(builtin_boundary("f3", rect), spec)
    rows = [("index", "family", "nu", "delta", "coefficient", "weight")]
    rows += [(md.index, md.family.value, md.nu, md.delta, c, w)
             for md, c, w in zip(spec.modes[1:], u.coefficients.values, u.weights)]
    assert echo == reference_csv(rows, 17)


@pytest.mark.parametrize("digits", ["6", "17"])
def test_table_files_match_the_reference_writer(tmp_path, capsys, digits):
    ids = (1, 4, 10, 11, 12)
    assert main(["tables", "--which", ",".join(map(str, ids)), "--digits", digits, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    ws = TableWorkspace()
    for tid in ids:
        result = reproduce_table(tid, ws)
        want = reference_csv([result.header] + result.rows, int(digits))
        assert (tmp_path / f"table_{tid:02d}.csv").read_text() == want


def test_large_grid_is_streamed(tmp_path):
    """A 501 x 501 grid with exact columns never holds its rows in memory."""
    out = tmp_path / "g.csv"
    argv = ["grid", "--g", "builtin:f3", "--count", "41", "--grid", "501", "--with-exact", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    with open(out, "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 501 * 501


def _cell_rows(matrix):
    """The text of each row of a 0-padded cell matrix."""
    rows = np.concatenate([matrix, np.full((len(matrix), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return rows[rows != 0].tobytes().decode("ascii").split("\n")[:-1]


def _adversarial_values():
    """About 3e5 values, both signs, where a vectorised %.6g can go wrong."""
    rng = np.random.default_rng(20161)
    up, down = 10.0 ** np.arange(0, 31), 10.0 ** np.arange(1, 31)
    six = rng.integers(10**5, 10**6, 1000).astype(float)
    ties = np.concatenate([np.outer(six + 0.5, up).ravel(), np.outer(six + 0.5, 1 / down).ravel(),
                           ((six + 0.5)[:, None] / down[None, :23]).ravel()])  # 123456.5, 0.1234565, ...
    carries = np.concatenate([(1e6 - 0.5) * up, (1e6 - 0.5) / down, (1e7 - 0.5) / down])  # 999999.5, 9.999995
    switches = np.array([1e-5, 1e-4, 9.999995e-5, 9.9999949e-5, 99999.95, 999999.5, 999999.4999, 1e5, 1e6])
    special = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1.7e308,
                        np.finfo(float).max, 1e22, 1e23, 1e-22, 1e-23])
    edges = np.concatenate([ties[::97], carries, switches, special, up, 1 / down])
    bits = rng.integers(0, 2**63, 30000, dtype=np.int64).view(np.float64)  # any exponent, nan payloads
    spread = rng.standard_normal(30000) * 10.0 ** rng.uniform(-19, 29, 30000)
    with np.errstate(over="ignore"):
        above = np.nextafter(edges, np.inf)  # max -> inf
    a = np.concatenate([ties, carries, edges, np.nextafter(edges, 0), above, bits, spread])
    return np.concatenate([a, -a])


@pytest.mark.parametrize("digits", [6, 17])
def test_float_cells_match_python_percent(digits):
    a = _adversarial_values()
    cell = f"%.{digits}g"
    assert _cell_rows(cells.float_cells(a, digits)) == [cell % v for v in a.tolist()]


@pytest.mark.parametrize("digits", [6, 17])
@pytest.mark.parametrize("rows", [0, 1, 9])
def test_mixed_blocks_match_the_reference_writer(tmp_path, rows, digits):
    rng = np.random.default_rng(rows)
    u = rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 9, rows)
    u[: min(rows, 5)] = [np.nan, -np.inf, -0.0, 0.0, np.inf][: min(rows, 5)]
    labels = [f"r{i}" for i in range(rows)]
    tags = np.array([b"xy", b"f1", b"const"] * 3, dtype="S")[:rows]
    block = [labels, "same", u, tags, -u[::-1].copy()]
    out = tmp_path / "t.csv"
    cli._write_columns(out, ("a", "b", "c", "d", "e"), [block, block], digits)
    rows_ref = [(name, "same", v, t.decode(), w)
                for name, v, t, w in zip(labels, u.tolist(), tags, block[4].tolist())]
    assert out.read_text() == reference_csv([("a", "b", "c", "d", "e")] + rows_ref * 2, digits)


@pytest.mark.parametrize("with_exact", [False, True])
def test_points_file_without_points_writes_the_header(tmp_path, with_exact):
    pts, out = tmp_path / "pts.csv", tmp_path / "out.csv"
    pts.write_text("x,y\n")
    assert main(["solve", "--g", "builtin:f1", "--count", "4", "--points", f"file:{pts}",
                 "--points-out", str(out)] + ["--with-exact"] * with_exact) == 0
    assert out.read_text() == "x,y,u" + ",exact,error" * with_exact + "\n"


@pytest.mark.parametrize("argv", [
    ["--g", "builtin:f1", "--h", "1"],
    ["--g", "builtin:bd2", "--kind", "neumann", "--h", "0.5"],  # exponent-form error cells
])
def test_grid_cells_match_the_row_template(tmp_path, monkeypatch, argv):
    """A 201 x 201 grid with exact columns at 6 digits, byte for byte."""
    matrices, template = tmp_path / "matrices.csv", tmp_path / "template.csv"
    common = ["grid", *argv, "--count", "41", "--grid", "201", "--with-exact"]
    assert main(common + ["--out", str(matrices)]) == 0
    monkeypatch.setattr(cells, "EXACT_DIGITS", 0)  # every block through the row template
    assert main(common + ["--out", str(template)]) == 0
    assert matrices.read_bytes() == template.read_bytes()
