"""Command-line behavior: outputs, exit codes, determinism, cache fidelity."""

import argparse
import csv
import json
import math

import pytest

from steklov import Rectangle, build_spectrum, spectrum_to_json
from steklov.cli import _parse_which, build_parser, main


def run(args):
    return main(args)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_spectrum_writes_cache_and_listing(tmp_path):
    cache = tmp_path / "s.json"
    listing = tmp_path / "s.csv"
    assert run(["spectrum", "--h", "1", "--M", "1",
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


def test_tables_which_drops_repeated_ids(capsys):
    """A repeated id runs, prints and writes its table once, at its first place."""
    assert _parse_which("1-3,2") == [1, 2, 3]
    assert _parse_which("3,1-3") == [3, 1, 2]
    assert run(["tables", "--which", "2,2"]) == 0
    assert capsys.readouterr().out.count("table 2:") == 1


def test_tables_bad_id(tmp_path):
    assert run(["tables", "--which", "99"]) == 2


@pytest.mark.parametrize("which", ["3-1", "1-2-3"])
def test_tables_refuse_a_which_part_that_is_no_range(capsys, which):
    """A descending or three-ended range selects no tables; it exits 2, naming the part."""
    assert run(["tables", "--which", f"2,{which}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --which: ") and repr(which) in err


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
def half_cache(tmp_path, capsys):
    cache = tmp_path / "half.json"
    assert run(["spectrum", "--h", "0.5", "--count", "16",
                "--out", str(cache), "--csv", str(tmp_path / "half.csv")]) == 0
    capsys.readouterr()  # the summary line on stderr is not the test's output
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


@pytest.mark.parametrize("h, message", [
    ("inf", "aspect ratio h must be a finite number, got inf"),
    ("nan", "aspect ratio h must be a finite number, got nan"),
    ("-0.5", "aspect ratio h must be positive, got -0.5"),
])
def test_aspect_ratio_outside_range_says_which_rule(tmp_path, capsys, h, message):
    assert run(["grid", "--g", "builtin:f1", "--h", h, "--grid", "5", "--out", str(tmp_path / "g.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_check_honours_count_and_global(monkeypatch):
    from steklov.analysis import SuiteReport

    seen = []
    monkeypatch.setattr("steklov.cli.invariant_suite",
                        lambda spec, seed: seen.append(spec) or SuiteReport(()))
    assert run(["check", "--h", "0.8", "--count", "7"]) == 0
    [spec] = seen
    assert spec.size - 1 == 7 and spec.selection == "global-sorted"


@pytest.mark.parametrize("command", [
    ["spectrum", "--csv", "-"],
    ["solve", "--g", "builtin:f1", "--points", "paper"],
    ["grid", "--g", "builtin:f1", "--grid", "5"],
    ["check"],
])
@pytest.mark.parametrize("flag", ["--M"])
def test_zero_depth_exits_2(tmp_path, command, flag):
    argv = command + [flag, "0"]
    if command[0] in ("spectrum", "grid"):
        argv += ["--out", str(tmp_path / "out")]
    assert run(argv) == 2


@pytest.mark.parametrize("command", [["solve", "--g", "builtin:f1", "--grid", "3"], ["tables"]], ids=["solve", "tables"])
@pytest.mark.parametrize("tolerances", [["--abstol", "nan"], ["--abstol", "inf", "--reltol", "inf"]], ids=["nan", "inf"])
def test_tolerances_outside_zero_to_inf_exit_2(tmp_path, capsys, command, tolerances):
    argv = command + tolerances + ["--out", str(tmp_path / "out")]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "tolerances must be positive and finite" in err


@pytest.mark.parametrize("other", [["--count", "5"]])
def test_m_excludes_other_truncation_flags(tmp_path, capsys, other):
    argv = ["spectrum", "--h", "0.8", "--M", "3", *other,
            "--out", str(tmp_path / "s.json"), "--csv", str(tmp_path / "s.csv")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("flag", [["--M", "2"], ["--count", "300"]])
def test_cache_rejects_truncation_flags(tmp_path, half_cache, capsys, flag):
    out = tmp_path / "g.csv"
    assert run(["grid", "--g", "builtin:f1", "--cache", str(half_cache), *flag,
                "--grid", "5", "--out", str(out)]) == 2
    assert "--cache fixes the truncation; drop " + flag[0] in capsys.readouterr().err
    assert not out.exists()


_UNREAD_FLAGS = [
    ("tables --which 1", "--h 0.3"), ("tables --which 1", "--seed 1"), ("tables --which 1", "--threads 7"),
    ("spectrum", "--abstol 1e-9"), ("spectrum", "--reltol 1e-5"), ("spectrum", "--seed 1"),
    ("spectrum", "--per-family 2"), ("spectrum", "--global 1"),
    ("solve --g builtin:f1 --print-coefficients", "--seed 1"),
    ("solve --g builtin:f1 --print-coefficients", "--per-family 2"),
    ("solve --g builtin:f1 --print-coefficients", "--global 1"),
    ("grid --g builtin:f1", "--seed 1"), ("grid --g builtin:f1", "--per-family 2"), ("grid --g builtin:f1", "--global 1"),
    ("check", "--abstol 1e-9"), ("check", "--reltol 1e-5"), ("check", "--digits 17"),
    ("check", "--per-family 2"), ("check", "--global 1"),
]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS, ids=[c.split()[0] + f.split()[0] for c, f in _UNREAD_FLAGS])
def test_commands_reject_flags_they_do_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run([*command.split(), *flag.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag.split()[0] in capsys.readouterr().err


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_read", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    "spectrum --h 0.5 --M 1 --out {tmp}/s.json --csv {tmp}/s.csv",
    "solve --g builtin:f1 --M 1 --grid 3 --out {tmp}/g.csv --points paper --points-out {tmp}/p.csv",
    "grid --g builtin:f1 --M 1 --grid 3 --out {tmp}/g.csv",
    "tables --which 1 --out {tmp}/tables",
    "check --M 1 --json {tmp}/c.json",
], ids=lambda argv: argv.split()[0])
def test_every_option_is_read_by_its_command(tmp_path, capsys, argv):
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    argv = argv.format(tmp=tmp_path).split()
    args = parser.parse_args(argv, namespace=_ReadRecorder())
    args._read.clear()  # parsing reads every destination
    assert args.func(args) == 0
    defined = {a.dest for a in commands.choices[argv[0]]._actions if a.option_strings} - {"help"}
    assert defined - args._read == set()


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


@pytest.mark.parametrize("corrupt, message", [
    (lambda data: data["modes"][3].update(delta=data["modes"][3]["delta"] * 1.01), "cache row 3: cached delta="),
    (lambda data: data["modes"][3].pop("delta"), "cache row 3 has no 'delta'"),
    (lambda data: data.pop("selection"), "cache has no 'selection'"),
], ids=["scaled-delta", "deleted-delta", "deleted-selection"])
def test_corrupt_cache_exits_2_and_says_where(tmp_path, capsys, half_cache, corrupt, message):
    data = json.loads(half_cache.read_text())
    corrupt(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["solve", "--cache", str(bad), "--g", "builtin:f1", "--points", "paper"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _row_field(row, name, value):
    """The cache with mode row `row`'s field `name` set to value."""
    def content(cache):
        cache["modes"][row][name] = value
        return cache
    return content


@pytest.mark.parametrize("flag, content, message", [
    ("--cache", lambda cache: [1, 2], "cache must be a JSON object, got '[1, 2]'"),
    ("--cache", lambda cache: {**cache, "h": None}, "cache h must be a number, got None"),
    ("--cache", lambda cache: {**cache, "h": True}, "cache h must be a number, got True"),
    ("--cache", lambda cache: {**cache, "h": "0.5"}, "cache h must be a number, got '0.5'"),
    ("--cache", lambda cache: {**cache, "h": "abc"}, "cache h must be a number, got 'abc'"),
    ("--cache", lambda cache: {**cache, "h": 10**400}, "aspect ratio h must be a finite number, got inf"),
    ("--cache", lambda cache: {**cache, "modes": None}, "cache modes must be a list of objects"),
    ("--cache", lambda cache: {**cache, "modes": [1]}, "cache modes must be a list of objects"),
    ("--cache", _row_field(2, "nu", None), "cache row 2: nu must be a number, got None"),
    ("--cache", _row_field(3, "nu", "abc"), "cache row 3: nu must be a number, got 'abc'"),
    ("--cache", _row_field(2, "nu", "2.5"), "cache row 2: nu must be a number, got '2.5'"),
    ("--cache", _row_field(0, "delta", False), "cache row 0: delta must be a number, got False"),
    ("--cache", _row_field(3, "delta", "1e"), "cache row 3: delta must be a number, got '1e'"),
    ("--cache", _row_field(3, "family", "f9"), "cache row 3: unknown family 'f9'"),
    ("--g", lambda cache: {"sides": {"G1": None, "G2": 0.0, "G3": 0.0, "G4": 0.0}},
     "boundary spec side G1: expected a number, a string or a list of coefficients, got None"),
    ("--g", lambda cache: {"sides": [1, 2]}, "boundary spec sides must map G1..G4 to values, got [1, 2]"),
    ("--g", lambda cache: {"expr": 5}, "boundary spec expr must be a string, got 5"),
], ids=["cache-list", "null-h", "bool-h", "numeric-text-h", "text-h", "huge-int-h", "null-modes", "int-mode", "null-nu", "text-nu",
        "numeric-text-nu", "bool-delta", "text-delta", "unknown-family", "null-side", "list-sides", "int-expr"])
def test_malformed_json_input_exits_2(tmp_path, capsys, half_cache, flag, content, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content(json.loads(half_cache.read_text()))))
    source = ["--cache", str(bad), "--g", "builtin:f1"] if flag == "--cache" else ["--M", "1", "--g", f"file:{bad}"]
    assert run(["solve", *source, "--print-coefficients"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("listing, names", [
    ([], "spectrum.json"),
    (["--csv", "-"], "spectrum.json and stdout"),
    (["--csv", "s.csv"], "spectrum.json and s.csv"),
], ids=["csv-omitted", "csv-dash", "csv-file"])
def test_spectrum_summary_goes_to_stderr(tmp_path, capsys, monkeypatch, listing, names):
    """stdout holds the CSV listing alone, or nothing when the listing goes to a file."""
    monkeypatch.chdir(tmp_path)
    assert run(["spectrum", "--h", "0.5", "--M", "1", *listing]) == 0
    out, err = capsys.readouterr()
    assert err == f"wrote 9 modes to {names}\n"
    if "s.csv" in listing:
        assert out == ""
        out = (tmp_path / "s.csv").read_text()
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["index", "family", "nu", "delta"] and len(rows) == 10
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(9)]


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
    ("x,y\n0.1,0.2,0.3\n", 2, "'0.1,0.2,0.3'"),
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


def test_spectrum_out_dash_writes_the_cache_to_stdout(tmp_path, capsys, monkeypatch):
    """`--out -` puts the JSON alone on stdout, as `-` means for every other output;
    the summary line goes to stderr."""
    monkeypatch.chdir(tmp_path)
    assert run(["spectrum", "--h", "0.5", "--M", "1", "--out", "-", "--csv", "s.csv"]) == 0
    out, err = capsys.readouterr()
    assert out == spectrum_to_json(build_spectrum(Rectangle(0.5), 1))
    assert err == "wrote 9 modes to stdout and s.csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


@pytest.mark.parametrize("listing", [[], ["--csv", "-"]], ids=["csv-omitted", "csv-dash"])
def test_spectrum_refuses_cache_and_listing_both_on_stdout(tmp_path, capsys, monkeypatch, no_solve, listing):
    monkeypatch.chdir(tmp_path)
    assert run(["spectrum", "--M", "1", "--out", "-", *listing]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --out - and the CSV listing would both go to stdout")
    assert list(tmp_path.iterdir()) == []


# spectrum with and without --csv, solve --cache then solve without it, an
# argparse error, check; relative paths, so stdout is the same in any directory
STATE_CALLS = [
    "spectrum --h 0.5 --M 1 --out s.json --csv s.csv",
    "spectrum --h 0.5 --count 6 --digits 17 --out t.json",
    "solve --g builtin:f1 --cache s.json --grid 4 --out p.csv --print-coefficients --digits 17",
    "solve --g builtin:f1 --h 0.5 --M 2 --grid 3 --out g.csv",
    "spectrum --h 0.5 --bogus 1",
    "check --h 0.5 --M 1 --seed 3 --json c.json",
]


def _outcome(argv, capsys):
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse errors exit 2 from parse_args
        code = exc.code
    return code, *capsys.readouterr()


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_in_process_calls_share_no_state(tmp_path, capsys, monkeypatch):
    """One parser serves every call of a process, and no call leaves state behind:
    each gives the stdout, stderr, exit code and file bytes of the same call
    made first in a fresh parser."""
    assert build_parser() is build_parser()
    fresh, shared = tmp_path / "fresh", tmp_path / "shared"
    fresh.mkdir(), shared.mkdir()
    monkeypatch.chdir(fresh)
    want = []
    for argv in STATE_CALLS:
        build_parser.cache_clear()
        want.append(_outcome(argv, capsys))
    assert [w[0] for w in want] == [0, 0, 0, 0, 2, 0]
    parser = build_parser()
    monkeypatch.chdir(shared)
    for _ in range(2):
        assert [_outcome(argv, capsys) for argv in STATE_CALLS] == want
    assert build_parser() is parser
    assert _files(shared) == _files(fresh)


@pytest.mark.parametrize("flags, estimate", [
    (["--abstol", "1e-16", "--reltol", "1e-14"], "1e-16"),
    (["--count", "400", "--abstol", "1e-14", "--reltol", "1e-12"], "3.42e-16"),
], ids=["M5", "count400"])
def test_tolerance_below_rounding_says_so(capsys, flags, estimate):
    """An estimate at the rounding floor of its panels is not a convergence failure."""
    assert run(["solve", "--g", "builtin:f1", "--points", "paper", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no convergence" not in err
    assert ": the tolerance is below the rounding floor after 200 panel bisections on G1 (partial value " in err
    assert f", error estimate {estimate}, rounding floor " in err
