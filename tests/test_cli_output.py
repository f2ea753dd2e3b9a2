"""CLI numeric CSVs against a reference writer, and the memory of a large grid.

The reference writes each row through `csv.writer`, formats every value with
`format(v, f".{digits}g")` and takes exact solutions from `math` formulas
evaluated point by point. The CLI formats column arrays and evaluates exact
solutions with numpy, whose log, exp and sin may differ from `math` by an
ulp, so the exact and error columns are compared within that; every other
column, and every file without them, must be byte-identical.

A block of one float column (`cells.block_bytes`) is held to Python's `%`
on adversarial values and on drawn ones (random bit patterns and the edges
of the exact 17-digit path), an integer column to `str`, and the writer to
the reference on mixed, one-row and empty blocks, on the slot boundaries of
its row buffer (text widths around multiples of 8, the widest fallback
cells, single-column blocks), on table files (text, int, float and bool
columns), on whole grids and on 8000-mode spectrum caches and listings.
Standard output, redirected to an `io.StringIO`, gets the files' text.
"""

import csv
import io
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklov import Rectangle, build_spectrum, build_spectrum_by_count, builtin_boundary, grid_points, spectrum_to_json
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


# the square's xy mode is the 41-mode listing's; --M 5 keeps 5 roots per family
SPECTRUM_CASES = [("1", ["--count", "1"]), ("1", ["--count", "41"]), ("0.6", ["--count", "1200"]),
                  ("1", ["--M", "5"]), ("0.45", ["--M", "5"])]


@pytest.mark.parametrize("h, truncation", SPECTRUM_CASES, ids=[f"h{h}{f[2:]}{n}" for h, (f, n) in SPECTRUM_CASES])
def test_spectrum_cache_and_listing_share_their_texts(tmp_path, h, truncation):
    """The cache is `spectrum_to_json` of the spectrum; the 17-digit listing's
    rows are each mode's own `%.17g` texts, the 6-digit listing the float columns
    through `_write_columns`."""
    flag, n = truncation
    rect = Rectangle(float(h))
    spec = build_spectrum_by_count(rect, int(n)) if flag == "--count" else build_spectrum(rect, int(n))
    header = ("index", "family", "nu", "delta")
    for digits in ("6", "17"):
        cache, listing = tmp_path / f"s{digits}.json", tmp_path / f"s{digits}.csv"
        assert main(["spectrum", "--h", h, *truncation, "--digits", digits,
                     "--out", str(cache), "--csv", str(listing)]) == 0
        assert cache.read_text() == spectrum_to_json(spec)
        if digits == "17":
            rows = [f"{md.index},{md.family.value},{md.nu:.17g},{md.delta:.17g}" for md in spec.modes]
            assert listing.read_text() == "\n".join([",".join(header), *rows]) + "\n"
        else:
            want = tmp_path / "want.csv"
            a = spec.arrays
            families = [md.family.value for md in spec.modes]
            cli._write_columns(want, header, [[[str(i) for i in range(spec.size)], families, a.nu, a.delta]], 6)
            assert listing.read_bytes() == want.read_bytes()


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
    assert bytes(cells.block_bytes([a], digits)).decode("ascii") == "".join(cell % v + "\n" for v in a.tolist())


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


def _block_file(tmp_path, header, block, digits):
    """The CSV `_write_columns` makes of the header and the block written twice."""
    out = tmp_path / "t.csv"
    cli._write_columns(out, header, [block, block], digits)
    return out.read_text()


@pytest.mark.parametrize("digits", [6, 17])
@pytest.mark.parametrize("width", [7, 8, 9, 15, 16, 17])
def test_text_slots_around_multiples_of_8_match_the_reference_writer(tmp_path, width, digits):
    """A text slot is the column's width plus the separator, rounded up to 8 bytes."""
    labels = ["t" * width, "u" * (width - 1), "v"]
    u = np.array([1.5, -2.25e-7, 123456.7])
    rows = list(zip(labels, u.tolist(), labels))
    header = ("a", "b", "c")
    assert _block_file(tmp_path, header, [labels, u, labels], digits) == reference_csv([header] + rows * 2, digits)


@pytest.mark.parametrize("digits", [6, 17])
@pytest.mark.parametrize("values", [
    [-1.7976931348623157e308, -2.2250738585072014e-308, -5e-324],  # -1.79769e+308: 13 bytes, the widest
    [0.0, -0.0, np.nan, np.inf, -np.inf],
], ids=["widest", "special"])
def test_blocks_of_fallback_cells_match_the_reference_writer(tmp_path, values, digits):
    """Every float cell of these blocks goes through Python's `%` into its own slot."""
    u = np.array(values)
    block = [u, "same", -u[::-1].copy()]
    rows = list(zip(u.tolist(), ["same"] * u.size, block[2].tolist()))
    header = ("a", "b", "c")
    assert _block_file(tmp_path, header, block, digits) == reference_csv([header] + rows * 2, digits)


@pytest.mark.parametrize("digits", [6, 17])
@pytest.mark.parametrize("rows", [0, 1, 3])
@pytest.mark.parametrize("names", [("float",), ("text",), ("float", "str"), ("str", "float")])
def test_single_column_and_constant_blocks_match_the_reference_writer(tmp_path, names, rows, digits):
    u = np.array([0.25, -3.5e-9, 7.0e12])[:rows]
    labels = ["a", "bb", "ccc"][:rows]
    columns = {"float": (u, u.tolist()), "text": (labels, labels), "str": ("const", ["const"] * rows)}
    block = [columns[k][0] for k in names]
    want = [names] + list(zip(*(columns[k][1] for k in names))) * 2
    assert _block_file(tmp_path, names, block, digits) == reference_csv(want, digits)


def _stdout_of(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def test_standard_output_gets_the_text_of_the_files(tmp_path):
    """'-' writes to a `sys.stdout` without a binary buffer (an io.StringIO) what a file would hold."""
    common = ["--g", "builtin:f1", "--count", "12"]
    pts, grid = tmp_path / "pts.csv", tmp_path / "grid.csv"
    both = _stdout_of(["solve", *common, "--print-coefficients", "--points", "paper", "--points-out", "-"])
    echo = _stdout_of(["solve", *common, "--print-coefficients", "--points", "paper", "--points-out", str(pts)])
    assert echo.startswith("index,family,") and both == echo + pts.read_text()
    text = _stdout_of(["grid", *common, "--grid", "21", "--with-exact", "--out", "-"])
    assert _stdout_of(["grid", *common, "--grid", "21", "--with-exact", "--out", str(grid)]) == ""
    assert text == grid.read_text() and text.count("\n") == 1 + 21 * 21


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
def test_grid_cells_match_python_percent(tmp_path, monkeypatch, argv):
    """A 201 x 201 grid with exact columns at 6 digits is, byte for byte,
    the reference writer's `%` of each cell of the blocks it was written from."""
    blocks, block_bytes = [], cells.block_bytes
    monkeypatch.setattr(cells, "block_bytes", lambda block, digits: blocks.append(block) or block_bytes(block, digits))
    out = tmp_path / "grid.csv"
    assert main(["grid", *argv, "--count", "41", "--grid", "201", "--with-exact", "--out", str(out)]) == 0
    rows = [row for block in blocks
            for row in zip(*(c.tolist() if c.dtype.kind == "f" else c.astype(str).tolist() for c in block))]
    assert len(rows) == 201 * 201
    assert out.read_text() == reference_csv([("x", "y", "u", "exact", "error")] + rows, 6)


def _decimal(digits: int, x: int) -> float:
    """The double nearest digits * 10**(x - 16)."""
    return float(f"{digits}e{x - 16}")


# Values where an exact 17-digit path can go wrong: a significand at either
# end of [10**16, 10**17), powers of ten, the ends of [1e-6, 1e17), and any
# bit pattern (nan payloads, infinities and subnormals among them); each
# moved by a few ulp and given either sign.
_BASES = st.one_of(
    st.builds(_decimal, st.integers(10**16 - 3, 10**16 + 3), st.integers(-8, 18)),
    st.builds(_decimal, st.integers(10**17 - 4, 10**17 + 1), st.integers(-8, 18)),
    st.builds(lambda k: 10.0**k, st.integers(-25, 30)),
    st.sampled_from([1e-6, 1e17, 1e-5, 1e-4, 0.001, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))),
)


@st.composite
def _hard_floats(draw):
    v = draw(_BASES)
    ulps = draw(st.integers(-4, 4))
    with np.errstate(over="ignore"):
        for _ in range(abs(ulps)):
            v = float(np.nextafter(v, np.inf if ulps > 0 else 0.0))
    return -v if draw(st.booleans()) else v


@settings(max_examples=300, deadline=None)
@given(st.lists(_hard_floats(), min_size=1, max_size=40))
def test_drawn_float_cells_match_python_percent(values):
    a = np.array(values)
    for digits in (6, 17):
        want = "".join(f"%.{digits}g\n" % v for v in values)
        assert bytes(cells.block_bytes([a], digits)).decode("ascii") == want


def test_integer_cells_match_str():
    """An integer column is `str` of each value: the 17-digit path below 10**17, `str` above."""
    edges = [0, 1, 9, 10, 99, 100, 10**4 - 1, 10**4, 10**8, 10**16 - 1, 10**16, 10**17 - 1, 10**17, 10**18,
             2**63 - 1, -(2**63)]
    a = np.concatenate([edges, np.negative(edges[:-1]), np.random.default_rng(3).integers(-(10**18), 10**18, 5000)])
    assert np.array_equal(a, a.astype(np.int64))
    assert bytes(cells.block_bytes([a, a], 17)).decode("ascii") == "".join(f"{v},{v}\n" for v in a.tolist())


@pytest.mark.parametrize("h", ["1", "1e-3"])
def test_large_spectrum_matches_python_percent(tmp_path, h):
    """An 8000-mode cache and 17-digit listing are, byte for byte, each number through Python's `%`."""
    cache, listing = tmp_path / "s.json", tmp_path / "s.csv"
    assert main(["spectrum", "--h", h, "--count", "8000", "--digits", "17",
                 "--out", str(cache), "--csv", str(listing)]) == 0
    spec = build_spectrum_by_count(Rectangle(float(h)), 8000)
    a = spec.arrays
    rows = list(zip(range(spec.size), [md.family.value for md in spec.modes], a.nu.tolist(), a.delta.tolist()))
    assert listing.read_text() == reference_csv([("index", "family", "nu", "delta")] + rows, 17)
    modes = ",\n".join('    {"family": "%s", "nu": %.17g, "delta": %.17g}' % row[1:] for row in rows)
    assert cache.read_text() == ('{\n  "h": %.17g,\n  "selection": "%s",\n  "modes": [\n%s\n  ]\n}\n'
                                 % (spec.rectangle.h, spec.selection, modes))
