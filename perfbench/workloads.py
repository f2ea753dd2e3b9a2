"""The four benchmark workloads: seeded inputs, timed ops and their checks.

`make(name, seed, workdir, smoke)` builds a workload. Building it generates
every input from the seed and computes every reference value (exact
solutions on grids and at points) with numpy formulas, so no timed op pays
for its own reference. `Workload.ops()` returns a fresh op list for one pass.
An op's `run` is timed; its `check` is not. A check returns the op's worst
error divided by its tolerance (0 for exact checks) plus any counters, and
raises `Incorrect` when an output is wrong.

Aspect ratios and mode counts of checked solves are fixed per case, because
both the error (accuracy_margin) and the work (wall_s) depend on them; the
seed moves probe points, scattered points and the aspect ratios of the
`session` spectra, whose checks are exact. Why each workload exists is in
NOTES.md.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from steklov import analysis, boundary, catalog, cli, geometry, solvers, spectrum, tables

class Incorrect(Exception):
    """An op produced a wrong output."""


@dataclass
class Check:
    margin: float = 0.0
    counters: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Check]


def _worst(err: float, tol: float, what: str) -> float:
    if not math.isfinite(err):
        raise Incorrect(f"{what}: error is {err}")
    return err / tol


# ---------------------------------------------------------------------------
# exact solutions (numpy) and boundary data
# ---------------------------------------------------------------------------

EXACT = {
    "f1": (lambda x, y: x**4 - 6 * x * x * y * y + y**4,
           lambda x, y: (4 * x**3 - 12 * x * y * y, 4 * y**3 - 12 * x * x * y)),
    "f2": (lambda x, y: (2 - x) / ((2 - x) ** 2 + y * y), None),
    "f3": (lambda x, y: 0.5 * np.log((x - 3) ** 2 + (y - 3) ** 2), None),
    "bd1": (lambda x, y: x + y, None),
    "bd2": (lambda x, y: x * x - y * y, lambda x, y: (2 * x, -2 * y)),
    "bd3": (lambda x, y: np.exp(x) * np.sin(y),
            lambda x, y: (np.exp(x) * np.sin(y), np.exp(x) * np.cos(y))),
    "exp(x)*cos(y)": (lambda x, y: np.exp(x) * np.cos(y), None),
}


def _boundary_mean(fn, h: float) -> float:
    """Perimeter-weighted boundary mean, by 64-point Gauss-Legendre per side."""
    t, w = np.polynomial.legendre.leggauss(64)
    one = np.ones_like(t)
    vertical = (w * (fn(one, h * t) + fn(-one, h * t))).sum() * h
    horizontal = (w * (fn(t, h * one) + fn(t, -h * one))).sum()
    return float((vertical + horizontal) / (4.0 + 4.0 * h))


def _exact(name: str, kind: str, h: float):
    """Exact value and gradient formulas; Neumann solutions have zero boundary mean."""
    value, gradient = EXACT[name]
    if kind != "neumann":
        return value, gradient
    c = _boundary_mean(value, h)
    return (lambda x, y: value(x, y) - c), gradient


def _data(name: str, kind: str, rect):
    if name in catalog.BUILTIN_NAMES:
        return catalog.builtin_boundary(name, rect, 1.0 if kind == "robin" else None)
    return boundary.BoundaryFunction.from_expression(name, rect)


def _solve(kind: str, g, spec, corner: bool):
    if kind == "dirichlet":
        return solvers.solve_dirichlet(g, spec, use_corner_reduction=corner)
    if kind == "robin":
        return solvers.solve_robin(g, 1.0, spec)
    return solvers.solve_neumann(g, spec)


def _box(h: float, inset: float):
    return (-inset, inset), (-inset * h, inset * h)


class Workload:
    def ops(self) -> list[Op]:
        raise NotImplementedError

    def instrument(self, tracer) -> None:
        """Switch the benchmark's own boundary data to counted data."""


# ---------------------------------------------------------------------------
# tables: the paper reproduction
# ---------------------------------------------------------------------------

TABLE_ROWS = {1: 35, 2: 35, 3: 35, 4: 9, 5: 9, 6: 9, 7: 9, 8: 9, 9: 9,
              10: 54, 11: 12, 12: 6, 13: 6, 14: 6}
POINTWISE_TOL = 1e-4  # the paper's grading tolerances
EXACT_ROW_TOL = 1e-6
RERR_TOL = 0.05


class Tables(Workload):
    """reproduce_table(1..14) with one fresh TableWorkspace per pass.

    The tables are the paper's, so the seed changes nothing here.
    """

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.ids = (1, 7, 12) if smoke else tuple(TABLE_ROWS)

    def ops(self) -> list[Op]:
        ws = tables.TableWorkspace()
        return [Op(f"table{t}", (lambda t=t: tables.reproduce_table(t, ws)),
                   (lambda res, t=t: _check_table(t, res))) for t in self.ids]


def _check_table(t: int, res) -> Check:
    """Grade every entry from its own `within` flag, never from an exit code."""
    if len(res.rows) != TABLE_ROWS[t]:
        raise Incorrect(f"table {t}: {len(res.rows)} rows, expected {TABLE_ROWS[t]}")
    header = list(res.header)
    within, note = header.index("within"), header.index("note")
    rel = "rel_diff" in header
    diff = header.index("rel_diff" if rel else "abs_diff")
    margin = 0.0
    for row in res.rows:
        if not row[within]:
            raise Incorrect(f"table {t}: entry {row[:2]} out of tolerance")
        if "implied" in row[note]:
            continue  # a documented misprint, graded against its implied value
        tol = RERR_TOL if rel else (EXACT_ROW_TOL if row[0] == "exact" else POINTWISE_TOL)
        margin = max(margin, _worst(float(row[diff]), tol, f"table {t}"))
    return Check(margin)


# ---------------------------------------------------------------------------
# solve: many-mode solves checked against exact solutions
# ---------------------------------------------------------------------------

SOLVE_COUNT = 400  # nu_max < 300 at every h below
SOLVE_PROBES = 32
SOLVE_LATTICE = 41
# data, kind, h, corner reduction, tolerance (about 5x the measured worst error)
SOLVE_CASES = (
    ("f2", "dirichlet", 1.0, True, 1e-7),
    ("f3", "dirichlet", 0.5, False, 2e-6),
    ("bd2", "neumann", 0.5, False, 1e-5),
    ("bd3", "robin", 1.0, False, 2e-7),
    ("exp(x)*cos(y)", "dirichlet", 0.1, False, 3e-4),
    ("bd1", "neumann", 0.1, False, 2e-4),
)


@dataclass
class _SolveCase:
    data: str
    kind: str
    h: float
    corner: bool
    tol: float
    g: object
    probes: np.ndarray
    probe_exact: np.ndarray
    lattice: tuple
    lattice_exact: np.ndarray


class Solve(Workload):
    """Solves with SOLVE_COUNT modes, checked at seeded probes and a fixed lattice.

    The fixed lattice reaches 0.95 of the way to the boundary, where the
    error peaks, so the worst error does not depend on where the seeded
    probes fall.
    """

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = np.random.default_rng(seed)
        self.cases = []
        for data, kind, h, corner, tol in SOLVE_CASES[2:3] if smoke else SOLVE_CASES:
            rect = geometry.Rectangle(h)
            (x0, x1), (y0, y1) = _box(h, 0.95)
            probes = np.column_stack([rng.uniform(x0, x1, SOLVE_PROBES), rng.uniform(y0, y1, SOLVE_PROBES)])
            lattice = np.meshgrid(np.linspace(x0, x1, SOLVE_LATTICE), np.linspace(y0, y1, SOLVE_LATTICE))
            value, _ = _exact(data, kind, h)
            self.cases.append(_SolveCase(
                data, kind, h, corner, tol, _data(data, kind, rect),
                probes, value(probes[:, 0], probes[:, 1]), lattice, value(*lattice)))

    def instrument(self, tracer) -> None:
        from tracing import count_data

        for c in self.cases:
            c.g = count_data(c.g, tracer)

    def ops(self) -> list[Op]:
        return [Op(f"{c.kind}:{c.data}:h={c.h}", (lambda c=c: self._run(c)),
                   (lambda out, c=c: self._check(c, out))) for c in self.cases]

    @staticmethod
    def _run(c: _SolveCase):
        spec = spectrum.build_spectrum_by_count(geometry.Rectangle(c.h), SOLVE_COUNT)
        u = _solve(c.kind, c.g, spec, c.corner)
        probes = np.array([u.eval(x, y) for x, y in c.probes.tolist()])
        return probes, u.eval_array(*c.lattice)

    @staticmethod
    def _check(c: _SolveCase, out) -> Check:
        probes, lattice = out
        err = max(np.abs(probes - c.probe_exact).max(), np.abs(lattice - c.lattice_exact).max())
        return Check(_worst(float(err), c.tol, c.data))


# ---------------------------------------------------------------------------
# field: moderate-K solves followed by dense evaluation
# ---------------------------------------------------------------------------

FIELD_GRID = 1001
FIELD_SCATTER = 100_000
FIELD_GRAD_GRID = 201  # interior grid over 0.9 of each half-width
# data, kind, h, corner reduction, modes, tolerances (about 5x the measured worst)
FIELD_CASES = (
    ("f1", "dirichlet", 1.0, True, 41, {"value": 1e-2, "gradient": 2e-2, "l2": 1e-3}),
    ("bd3", "robin", 0.8, False, 60, {"value": 2e-2, "gradient": 5e-2, "l2": 1e-3}),
    ("bd2", "neumann", 0.5, False, 80, {"value": 5e-2, "gradient": 2e-1, "l2": 5e-3}),
)


@dataclass
class _FieldCase:
    data: str
    kind: str
    h: float
    corner: bool
    modes: int
    tol: dict
    g: object
    rect: object
    grid_exact: np.ndarray
    scatter: tuple
    scatter_exact: np.ndarray
    grad_points: tuple
    grad_exact: tuple
    node_sets: list  # (X, Y, exact) for the interior-norm node sets
    value: Callable

    def exact_on(self, X, Y):
        for xs, ys, ex in self.node_sets:
            if X.shape == xs.shape and np.array_equal(X, xs) and np.array_equal(Y, ys):
                return ex
        return self.value(X, Y)


class Field(Workload):
    """Each op solves one case and evaluates it densely; references come from setup."""

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = np.random.default_rng(seed)
        self.cases = []
        for data, kind, h, corner, modes, tol in FIELD_CASES[:1] if smoke else FIELD_CASES:
            rect = geometry.Rectangle(h)
            value, gradient = _exact(data, kind, h)
            grid = np.meshgrid(np.linspace(-1.0, 1.0, FIELD_GRID), np.linspace(-h, h, FIELD_GRID))
            scatter = (rng.uniform(-1.0, 1.0, FIELD_SCATTER), rng.uniform(-h, h, FIELD_SCATTER))
            (x0, x1), (y0, y1) = _box(h, 0.9)
            grad_points = np.meshgrid(np.linspace(x0, x1, FIELD_GRAD_GRID), np.linspace(y0, y1, FIELD_GRAD_GRID))
            nodes, _ = np.polynomial.legendre.leggauss(64)  # interior_l2's default rule
            node_sets = []
            for X, Y in (np.meshgrid(nodes, h * nodes),
                         np.meshgrid(np.linspace(-1.0, 1.0, 101), np.linspace(-h, h, 101))):
                node_sets.append((X, Y, value(X, Y)))
            self.cases.append(_FieldCase(
                data, kind, h, corner, modes, tol, _data(data, kind, rect), rect,
                value(*grid), scatter, value(*scatter), grad_points, gradient(*grad_points),
                node_sets, value))

    def instrument(self, tracer) -> None:
        from tracing import count_data

        for c in self.cases:
            c.g = count_data(c.g, tracer)

    def ops(self) -> list[Op]:
        return [Op(f"{c.kind}:{c.data}:K={c.modes}", (lambda c=c: self._run(c)),
                   (lambda out, c=c: self._check(c, out))) for c in self.cases]

    @staticmethod
    def _run(c: _FieldCase):
        spec = spectrum.build_spectrum_by_count(c.rect, c.modes)
        u = _solve(c.kind, c.g, spec, c.corner)
        grid = u.eval_grid(FIELD_GRID, FIELD_GRID)
        scatter = u.eval_array(*c.scatter)
        grad = u.gradient_arrays(*c.grad_points)
        err_fn = lambda X, Y: u.eval_array(X, Y) - c.exact_on(X, Y)
        l2 = analysis.interior_l2(err_fn, c.rect)
        sup = analysis.interior_sup(err_fn, c.rect)
        return grid, scatter, grad, l2, sup

    @staticmethod
    def _check(c: _FieldCase, out) -> Check:
        grid, scatter, (gx, gy), l2, sup = out
        if grid.shape != c.grid_exact.shape:
            raise Incorrect(f"{c.data}: grid shape {grid.shape}")
        tol = c.tol
        margin = max(
            _worst(float(np.abs(grid - c.grid_exact).max()), tol["value"], "grid"),
            _worst(float(np.abs(scatter - c.scatter_exact).max()), tol["value"], "scatter"),
            _worst(float(sup), tol["value"], "interior_sup"),
            _worst(float(max(np.abs(gx - c.grad_exact[0]).max(), np.abs(gy - c.grad_exact[1]).max())),
                   tol["gradient"], "gradient"),
            _worst(float(l2), tol["l2"], "interior_l2"),
        )
        return Check(margin)


# ---------------------------------------------------------------------------
# session: CLI commands in-process, as a user issues them
# ---------------------------------------------------------------------------

SESSION_COUNTS = tuple(range(100, 1201, 100))  # nu_max < 600 for h >= 0.6
SESSION_H = (0.6, 1.0)
SESSION_CACHE_MODES = 41
SESSION_GRID = 501
SESSION_POINTS = 200
SESSION_TOL = 1e-2  # f3 with 41 modes on the square, about 2.5x the measured worst


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


class Session(Workload):
    """spectrum (several seeded h) -> cached grid and point solves -> check."""

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = np.random.default_rng(seed)
        self.dir = workdir
        lo, hi = SESSION_H
        n = len(SESSION_COUNTS)
        # one aspect ratio per stratum of [lo, hi], so every seed spans the range
        self.spectra = [(count, round(lo + (hi - lo) * (i + rng.uniform()) / n, 6))
                        for i, count in enumerate(SESSION_COUNTS)]
        if smoke:
            self.spectra = self.spectra[:1]
        self.check_h = round(float(rng.uniform(lo, hi)), 6)
        self.check_seed = int(rng.integers(0, 2**31))
        pts = np.column_stack([rng.uniform(-0.95, 0.95, SESSION_POINTS),
                               rng.uniform(-0.95, 0.95, SESSION_POINTS)])
        self.points_file = workdir / "points.csv"
        self.points_file.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
        value, _ = _exact("f3", "dirichlet", 1.0)
        self.points_exact = value(pts[:, 0], pts[:, 1])
        axis = np.linspace(-1.0, 1.0, SESSION_GRID)
        self.grid_exact = value(*np.meshgrid(axis, axis)).ravel()

    def ops(self) -> list[Op]:
        ops = []
        for i, (count, h) in enumerate(self.spectra):
            ops.append(self._spectrum_op(f"spectrum{i}", h, count))
        ops.append(self._spectrum_op("cache", 1.0, SESSION_CACHE_MODES))
        cache = str(self.dir / "cache.json")
        grid_csv = self.dir / "grid.csv"
        points_csv = self.dir / "points_out.csv"
        check_json = self.dir / "check.json"
        common = ["--h", "1", "--g", "builtin:f3", "--cache", cache, "--with-exact"]
        ops.append(Op("grid", lambda: run_cli(
            ["grid", *common, "--grid", str(SESSION_GRID), "--out", str(grid_csv)]),
            lambda out: self._check_grid(out, grid_csv)))
        ops.append(Op("solve", lambda: run_cli(
            ["solve", *common, "--points", f"file:{self.points_file}", "--points-out", str(points_csv)]),
            lambda out: self._check_points(out, points_csv)))
        ops.append(Op("check", lambda: run_cli(
            ["check", "--h", repr(self.check_h), "--M", "3", "--seed", str(self.check_seed),
             "--json", str(check_json)]),
            lambda out: self._check_suite(out, check_json)))
        return ops

    def _spectrum_op(self, stem: str, h: float, count: int) -> Op:
        js, listing = self.dir / (stem + ".json"), self.dir / (stem + ".csv")
        argv = ["spectrum", "--h", repr(h), "--count", str(count), "--out", str(js),
                "--csv", str(listing), "--digits", "17"]
        return Op(f"spectrum:{count}", lambda: run_cli(argv),
                  lambda out: self._check_spectrum(out, count, js, listing))

    @staticmethod
    def _written(stdout: str, *paths: Path) -> dict:
        return {"cli.rows_written": sum(_csv_rows(p) for p in paths if p.suffix == ".csv"),
                "cli.bytes_written": len(stdout) + sum(p.stat().st_size for p in paths)}

    def _check_spectrum(self, out, count: int, js: Path, listing: Path) -> Check:
        rc, stdout = out
        if rc != 0:
            raise Incorrect(f"spectrum exited {rc}")
        rows = listing.read_text().splitlines()[1:]
        if len(rows) != count + 1:
            raise Incorrect(f"spectrum listing has {len(rows)} modes, expected {count + 1}")
        listed = [(float(r.split(",")[2]), float(r.split(",")[3])) for r in rows]
        text = js.read_text()
        cached = [(m["nu"], m["delta"]) for m in json.loads(text)["modes"]]
        loaded = [(m.nu, m.delta) for m in spectrum.spectrum_from_json(text).modes]
        if not listed == cached == loaded:
            raise Incorrect("cache round trip does not reproduce nu and delta exactly")
        return Check(0.0, self._written(stdout, js, listing))

    def _check_grid(self, out, path: Path) -> Check:
        rc, stdout = out
        if rc != 0:
            raise Incorrect(f"grid exited {rc}")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (SESSION_GRID**2, 5):
            raise Incorrect(f"grid CSV has shape {table.shape}")
        err = float(np.abs(table[:, 2] - self.grid_exact).max())
        return Check(_worst(err, SESSION_TOL, "grid"), self._written(stdout, path))

    def _check_points(self, out, path: Path) -> Check:
        rc, stdout = out
        if rc != 0:
            raise Incorrect(f"solve exited {rc}")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (SESSION_POINTS, 5):
            raise Incorrect(f"points CSV has shape {table.shape}")
        err = float(np.abs(table[:, 2] - self.points_exact).max())
        return Check(_worst(err, SESSION_TOL, "points"), self._written(stdout, path))

    def _check_suite(self, out, path: Path) -> Check:
        rc, stdout = out
        report = json.loads(path.read_text())
        if rc != 0 or report.get("passed") is not True:
            raise Incorrect(f"check exited {rc}: {stdout.strip()}")
        return Check(0.0, self._written(stdout, path))


def make(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    cls = {"tables": Tables, "solve": Solve, "field": Field, "session": Session}[name]
    return cls(seed, workdir, smoke)
