"""Command-line behavior: outputs, exit codes, determinism, cache fidelity."""

import csv
import json
import math

import pytest

from steklov.cli import main


def run(args):
    return main(args)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_spectrum_writes_cache_and_listing(tmp_path):
    cache = tmp_path / "s.json"
    listing = tmp_path / "s.csv"
    assert run(["spectrum", "--h", "1", "--per-family", "1",
                "--out", str(cache), "--csv", str(listing)]) == 0
    rows = read_csv(listing)
    assert rows[0] == ["index", "family", "nu", "delta"]
    assert len(rows) == 10  # header + 1 + 8*1
    deltas = [float(r[3]) for r in rows[1:]]
    assert deltas == sorted(deltas)
    assert any(r[1] == "xy" and float(r[3]) == 1.0 for r in rows[1:])
    data = json.loads(cache.read_text())
    assert data["h"] == 1.0 and len(data["modes"]) == 9


def test_spectrum_count_zero(tmp_path):
    listing = tmp_path / "s0.csv"
    assert run(["spectrum", "--h", "0.5", "--count", "0",
                "--out", str(tmp_path / "s0.json"), "--csv", str(listing)]) == 0
    rows = read_csv(listing)
    assert len(rows) == 2 and rows[1][1] == "const"


def test_spectrum_count_80_series(tmp_path):
    listing = tmp_path / "s80.csv"
    assert run(["spectrum", "--h", "0.8", "--count", "80",
                "--out", str(tmp_path / "s80.json"), "--csv", str(listing)]) == 0
    deltas = [float(r[3]) for r in read_csv(listing)[2:]]  # nonconstant
    assert len(deltas) == 80
    assert deltas == sorted(deltas)
    assert deltas[0] < 2.5
    assert deltas[79] > deltas[39] > deltas[9]


def test_solve_points_paper(tmp_path):
    out = tmp_path / "pts.csv"
    assert run(["solve", "--kind", "dirichlet", "--g", "builtin:f1", "--h", "1",
                "--M", "5", "--points", "paper", "--with-exact",
                "--points-out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "y", "u", "exact", "error"]
    assert len(rows) == 6
    p5 = rows[5]
    assert float(p5[2]) == pytest.approx(-0.25, abs=1e-4)


def test_solve_expression_roundtrip(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["solve", "--kind", "robin", "--b", "1",
                "--g", "expr:2*(exp(1)*sin(y))", "--h", "1", "--M", "2",
                "--points", "paper", "--points-out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 6


def test_solve_sides_file(tmp_path):
    spec = {"sides": {"G1": 1.0, "G2": "x^2", "G3": 0.0, "G4": [0.5, 1.0]}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "o.csv"
    assert run(["solve", "--g", f"file:{path}", "--h", "0.8", "--M", "2",
                "--grid", "5", "--out", str(out)]) == 0
    assert read_csv(out)[0] == ["x", "y", "u"]


def test_grid_output_order_and_exact_columns(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["grid", "--g", "builtin:bd1", "--kind", "neumann", "--h", "1",
                "--M", "5", "--grid", "11", "--with-exact", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "y", "u", "exact", "error"]
    assert len(rows) == 1 + 11 * 11
    xs = [float(r[0]) for r in rows[1:4]]
    ys = [float(r[1]) for r in rows[1:4]]
    assert xs == [-1.0, -0.8, -0.6] and ys == [-1.0, -1.0, -1.0]  # x fastest


def test_neumann_error_band_on_grid(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["grid", "--g", "builtin:bd1", "--kind", "neumann", "--h", "1",
                "--count", "40", "--grid", "101", "--with-exact", "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    interior, band = 0.0, 0.0
    for r in rows:
        x, y, err = float(r[0]), float(r[1]), abs(float(r[4]))
        if abs(x) == 1.0 or abs(y) == 1.0:
            band = max(band, err)
        else:
            interior = max(interior, err)
    assert interior < band


def test_incompatible_neumann_exits_2(tmp_path):
    assert run(["solve", "--kind", "neumann", "--g", "builtin:f3", "--h", "1",
                "--M", "2", "--grid", "5", "--out", str(tmp_path / "x.csv")]) == 2


def test_bad_robin_constant_exits_2(tmp_path):
    assert run(["solve", "--kind", "robin", "--b", "-1", "--g", "builtin:f1",
                "--h", "1", "--M", "2", "--grid", "5",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_bd3_with_wrong_b_exits_2(tmp_path):
    assert run(["solve", "--kind", "robin", "--b", "2", "--g", "builtin:bd3",
                "--h", "1", "--M", "2", "--grid", "5",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_invalid_h_exits_2(tmp_path):
    assert run(["spectrum", "--h", "1.5", "--count", "4",
                "--out", str(tmp_path / "s.json"), "--csv", str(tmp_path / "s.csv")]) == 2


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--g", "builtin:f2", "--h", "1", "--M", "3", "--grid", "31"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cache_fidelity(tmp_path):
    cache = tmp_path / "cache.json"
    assert run(["spectrum", "--h", "1", "--count", "24",
                "--out", str(cache), "--csv", str(tmp_path / "c.csv")]) == 0
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["solve", "--g", "builtin:f2", "--h", "1", "--cache", str(cache),
                "--grid", "9", "--out", str(a), "--digits", "17"]) == 0
    assert run(["solve", "--g", "builtin:f2", "--h", "1", "--count", "24",
                "--grid", "9", "--out", str(b), "--digits", "17"]) == 0
    for ra, rb in zip(read_csv(a)[1:], read_csv(b)[1:]):
        for va, vb in zip(ra, rb):
            assert abs(float(va) - float(vb)) <= 1e-12 * max(1.0, abs(float(vb)))


def test_check_passes_and_writes_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["check", "--h", "0.8", "--M", "2", "--seed", "7",
                "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    payload = json.loads(report.read_text())
    assert payload["passed"] is True


def test_check_seed_invariance(tmp_path):
    assert run(["check", "--h", "1", "--M", "1", "--seed", "7"]) == run(
        ["check", "--h", "1", "--M", "1", "--seed", "8"]
    )


def test_tables_subset(tmp_path, capsys):
    outdir = tmp_path / "tables"
    assert run(["tables", "--which", "1,14", "--out", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "table 1:" in out and "table 14:" in out
    assert (outdir / "table_01.csv").exists()
    assert (outdir / "table_14.csv").exists()


def test_tables_bad_id(tmp_path):
    assert run(["tables", "--which", "99"]) == 2


def test_coefficient_echo(capsys):
    assert run(["solve", "--g", "builtin:f1", "--h", "1", "--M", "1",
                "--points", "paper", "--print-coefficients", "--points-out", "-"]) == 0
    out = capsys.readouterr().out
    assert "index,family,nu,delta,coefficient,weight" in out


def test_tables_exit_1_when_an_entry_fails(monkeypatch, capsys):
    from steklov.tables import TableResult

    failing = TableResult(4, "stub", ("data", "M", "computed", "printed", "rel_diff", "within", "note"),
                          [("f1", 2, 1.0, 2.0, 0.5, False, "")], "5% rel")
    monkeypatch.setattr("steklov.cli.reproduce_table", lambda tid, ws, policy: failing)
    assert run(["tables", "--which", "4"]) == 1
    assert "some entries out of tolerance" in capsys.readouterr().out


@pytest.fixture()
def half_cache(tmp_path):
    cache = tmp_path / "half.json"
    assert run(["spectrum", "--h", "0.5", "--count", "16",
                "--out", str(cache), "--csv", str(tmp_path / "half.csv")]) == 0
    return cache


def test_cache_supplies_h_when_omitted(tmp_path, half_cache):
    out = tmp_path / "g.csv"
    assert run(["grid", "--g", "builtin:f1", "--cache", str(half_cache),
                "--grid", "5", "--out", str(out)]) == 0
    ys = sorted({float(r[1]) for r in read_csv(out)[1:]})
    assert ys[0] == -0.5 and ys[-1] == 0.5


@pytest.mark.parametrize("h", ["1", "0.8"])
def test_cache_for_another_h_exits_2(tmp_path, half_cache, capsys, h):
    assert run(["grid", "--g", "builtin:f1", "--h", h, "--cache", str(half_cache),
                "--grid", "5", "--out", str(tmp_path / "g.csv")]) == 2
    assert "cache is for h=0.5" in capsys.readouterr().err


def test_check_honours_count_and_global(monkeypatch):
    from steklov.analysis import SuiteReport

    seen = []
    monkeypatch.setattr("steklov.cli.invariant_suite",
                        lambda spec, tols, seed: seen.append(spec) or SuiteReport(()))
    assert run(["check", "--h", "0.8", "--count", "7"]) == 0
    assert run(["check", "--h", "0.8", "--global", "1"]) == 0
    assert [s.size - 1 for s in seen] == [7, 8]
    assert all(s.selection == "global-sorted" for s in seen)


@pytest.mark.parametrize("command", [
    ["spectrum", "--csv", "-"],
    ["solve", "--g", "builtin:f1", "--points", "paper"],
    ["grid", "--g", "builtin:f1", "--grid", "5"],
    ["check"],
])
@pytest.mark.parametrize("flag", ["--M", "--per-family", "--global"])
def test_zero_depth_exits_2(tmp_path, command, flag):
    argv = command + [flag, "0"]
    if command[0] in ("spectrum", "grid"):
        argv += ["--out", str(tmp_path / "out")]
    assert run(argv) == 2


@pytest.mark.parametrize("other", [["--count", "5"], ["--per-family", "2"], ["--global", "1"]])
def test_m_excludes_other_truncation_flags(tmp_path, capsys, other):
    argv = ["spectrum", "--h", "0.8", "--M", "3", *other,
            "--out", str(tmp_path / "s.json"), "--csv", str(tmp_path / "s.csv")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("flag", [["--M", "2"], ["--count", "300"], ["--per-family", "2"], ["--global", "1"]])
def test_cache_rejects_truncation_flags(tmp_path, half_cache, capsys, flag):
    out = tmp_path / "g.csv"
    assert run(["grid", "--g", "builtin:f1", "--cache", str(half_cache), *flag,
                "--grid", "5", "--out", str(out)]) == 2
    assert "--cache fixes the truncation; drop " + flag[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--h", "0.3"], ["--seed", "1"], ["--threads", "7"]])
def test_tables_rejects_flags_it_ignores(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["tables", "--which", "1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


def test_with_exact_neumann_drops_the_boundary_mean(tmp_path):
    # x^2 - y^2 has boundary mean 13/36 on R_0.5; the zero-mean solve drops it
    out = tmp_path / "g.csv"
    assert run(["grid", "--g", "builtin:bd2", "--kind", "neumann", "--h", "0.5", "--count", "200",
                "--grid", "41", "--with-exact", "--digits", "17", "--out", str(out)]) == 0
    rows = [[float(v) for v in r] for r in read_csv(out)[1:]]
    errors = [r[4] for r in rows]
    assert max(abs(e) for e in errors) < 1e-2
    inner = [abs(r[4]) for r in rows if abs(r[0]) < 0.9 and abs(r[1]) < 0.4]
    assert max(inner) < 2e-3
    x, y, _, exact, _ = rows[len(rows) // 2]
    assert (x, y) == (0.0, 0.0) and exact == pytest.approx(-13.0 / 36.0, rel=1e-9)


def test_with_exact_odd_neumann_solution_is_not_shifted(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["grid", "--g", "builtin:bd1", "--kind", "neumann", "--h", "0.7", "--M", "2",
                "--grid", "9", "--with-exact", "--digits", "17", "--out", str(out)]) == 0
    assert all(float(r[3]) == float(r[0]) + float(r[1]) for r in read_csv(out)[1:])


@pytest.mark.parametrize("data, kind, poses", [
    ("bd1", "dirichlet", "neumann"),
    ("bd2", "robin", "neumann"),
    ("f1", "neumann", "dirichlet"),
    ("f3", "robin", "dirichlet"),
    ("bd3", "dirichlet", "robin"),
])
def test_with_exact_rejects_data_of_another_problem(tmp_path, capsys, data, kind, poses):
    out = tmp_path / "g.csv"
    argv = ["grid", "--g", f"builtin:{data}", "--kind", kind, "--h", "1", "--M", "2",
            "--grid", "5", "--with-exact", "--out", str(out)]
    assert run(argv + ["--b", "1"] * (kind == "robin")) == 2
    err = capsys.readouterr().err
    assert f"builtin:{data} is {poses} data" in err and f"not {kind} data" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--kind", "dirichlet", "--b", "3"], "dirichlet does not take a Robin constant"),
    (["--kind", "neumann", "--b", "1"], "neumann does not take a Robin constant"),
    (["--kind", "robin"], "Robin problems need b > 0"),
    (["--kind", "robin", "--b", "1", "--corner-reduction"], "the corner reduction applies to Dirichlet problems, not robin"),
    (["--kind", "neumann", "--corner-reduction"], "the corner reduction applies to Dirichlet problems, not neumann"),
])
def test_flags_of_another_kind_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "g.csv"
    assert run(["solve", "--g", "builtin:bd1", "--h", "1", "--M", "2", "--grid", "5",
                "--out", str(out), *flags]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--points", "paper"], ["--points-out", "p.csv"], ["--format", "json"]])
def test_grid_takes_no_point_flags(tmp_path, capsys, flag):
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        run(["grid", "--g", "builtin:f1", "--M", "2", "--grid", "5", "--out", str(out), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data", ["expr:x*y", "file"])
def test_with_exact_needs_builtin_data(tmp_path, capsys, data):
    if data == "file":
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps({"expr": "x*y"}))
        data = f"file:{spec}"
    out = tmp_path / "g.csv"
    assert run(["solve", "--g", data, "--M", "2", "--grid", "5", "--with-exact", "--out", str(out)]) == 2
    assert f"--with-exact needs builtin:NAME data with a known solution, got {data}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--g", "file:{missing}.json", "--M", "1", "--print-coefficients"],
    ["--g", "builtin:f1", "--cache", "{missing}.json", "--print-coefficients"],
    ["--g", "builtin:f1", "--M", "1", "--points", "file:{missing}.csv"],
])
def test_missing_input_file_exits_2(tmp_path, capsys, flags):
    missing = tmp_path / "missing"
    assert run(["solve", "--h", "1", *(f.format(missing=missing) for f in flags)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err


@pytest.fixture
def no_solve(monkeypatch):
    """Makes building the spectrum fail the test: a refused command must not get there."""
    def refuse(args):
        raise AssertionError("the spectrum was built")

    monkeypatch.setattr("steklov.cli._spectrum_from_args", refuse)


@pytest.mark.parametrize("text, number, line", [
    ("x,y\n0.1,0.2\n0.5\n", 3, "'0.5'"),
    ("0.1,0.2\n\n0.3,zero\n", 3, "'0.3,zero'"),
    ("x,y\n0.1,0.2\nx,y\n", 3, "'x,y'"),  # a header only before the first point
])
def test_bad_points_line_names_file_and_line(tmp_path, capsys, no_solve, text, number, line):
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    assert run(["solve", "--g", "builtin:f1", "--M", "1", "--points", f"file:{pts}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {pts}, line {number}: expected x,y numbers, got {line}\n"


def test_points_outside_the_rectangle_exit_2_before_writing(tmp_path, capsys):
    pts, grid = tmp_path / "pts.csv", tmp_path / "g.csv"
    pts.write_text("x,y\n0.1,0.2\n0.3,0.9\n")
    assert run(["solve", "--g", "builtin:f1", "--h", "0.5", "--M", "1", "--grid", "3", "--out", str(grid),
                "--points", f"file:{pts}", "--print-coefficients"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: point (0.3, 0.9) outside the closed rectangle" in err
    assert not grid.exists()


@pytest.mark.parametrize("command, n", [("solve", "0"), ("grid", "0"), ("grid", "1")])
def test_grid_of_fewer_than_two_points_exits_2_before_solving(tmp_path, capsys, no_solve, command, n):
    out = tmp_path / "g.csv"
    assert run([command, "--g", "builtin:f1", "--M", "1", "--grid", n, "--out", str(out)]) == 2
    assert "error: grids need at least 2 points per axis" in capsys.readouterr().err
    assert not out.exists()


def test_solve_that_writes_nothing_exits_2_before_solving(capsys, no_solve):
    assert run(["solve", "--g", "builtin:f1", "--M", "1", "--with-exact"]) == 2
    assert "error: solve writes nothing" in capsys.readouterr().err


def test_print_coefficients_alone_is_output(capsys):
    assert run(["solve", "--g", "builtin:f1", "--h", "1", "--M", "1", "--print-coefficients"]) == 0
    assert capsys.readouterr().out.startswith("index,family,nu,delta,coefficient,weight\n")
