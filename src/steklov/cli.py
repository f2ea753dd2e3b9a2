"""Command-line front end.

Commands:
    spectrum   compute eigenpairs, write the JSON cache and a CSV listing
    solve      solve a boundary value problem, write grids / point values
    grid       grid-only variant of solve; it takes no point flags
    tables     recompute the published tables and grade agreement
    check      run the spectrum invariant suite

Each subcommand defines only the options it reads: a flag it would ignore
exits 2 as an unrecognized argument. --M M keeps the first M roots of each
family (default 5), --count N the N smallest nonconstant eigenvalues; the two
exclude each other, and --cache excludes both. `main` may be called
repeatedly in one process: the parser is built once and each call parses into
a fresh namespace. `spectrum` formats each eigenpair once (`mode_cells`) for
the cache and a 17-digit listing; its `--out -`, like every `-` output, is
standard output, and its `wrote N modes` line goes to standard error, as
`solve`'s `# wrote:` line does. `tables --which` runs a repeated id once.

Exit codes: 0 success, 1 failed checks (invariant suite, or table entries out
of tolerance), 2 invalid configuration (an input file that cannot be read,
or malformed JSON, among them) or incompatible data (expression data that
divide by zero or overflow, among them), 3 root-finder failure.

`solve` and `grid` build the problem kind from --kind and --b and solve through
`solvers.solve`, so a flag of another kind exits 2: --b is Robin-only (and
required there), --corner-reduction Dirichlet-only. Before solving they
refuse a grid of fewer than 2 points per axis, a `solve` with none of
--grid, --points and --print-coefficients, which would write nothing, and a
--points file with a line that is not two numbers (the error names the file,
the line number and its text) or with a point outside the rectangle.

Every CSV (grids, point values, spectrum listings, coefficients, table
files) is written from column arrays, one block of rows at a time, as bytes
(text on standard output): a grid is written in bands of about 2**13 values,
each formatted and written before the next is computed. No cell is quoted:
the text cells (labels, families, table notes) hold no comma, quote or
newline. Every number is formatted once, exactly as `%.{digits}g`
(`cells.py`): numpy stores the cells of a block into one byte buffer, a slot
per cell, the 6-digit ones from one proven float product and the 17-digit
ones from an exact one, and only the cells neither can store (0, nan, inf,
subnormals, magnitudes out of range, 6-digit near-ties) go through
Python's `%`.
`--with-exact` takes builtin data only, for the problem they pose (f1-f3
Dirichlet, bd1 and bd2 Neumann, bd3 Robin b = 1) and evaluates the exact
solution on the grid axes. A Neumann solution is fixed up to a constant; the
solve keeps the one with zero boundary mean, so the exact solution's
perimeter-weighted boundary mean is subtracted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import reference_tables as ref
from .analysis import invariant_suite
from .boundary import BoundaryFunction, QuadratureError
from .catalog import boundary_data_from_spec, builtin_boundary, exact_solution_for, reference_solution
from .geometry import GeometryError, Rectangle
from .solvers import ROBIN, IncompatibleDataError, ProblemKind, _grid_axes, _require_grid, solve
from .spectrum import (
    GLOBAL_SORTED,
    PER_FAMILY,
    FamilyTag,
    RootFindError,
    Spectrum,
    SpectrumError,
    build_spectrum,
    build_spectrum_by_count,
    load_spectrum,
    mode_cells,
    save_spectrum,
    spectrum_to_json,
)
from .tables import POLICY_PREFIX, TableWorkspace, reproduce_table

EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_ROOTFIND = 3


@contextmanager
def _output(path):
    """A writer of bytes to an output path; None or '-' is standard output, which takes text."""
    if path in (None, "-"):
        yield lambda data: sys.stdout.write(data.decode())
    else:
        with open(path, "wb") as fh:
            yield fh.write


def _write_columns(path, header, blocks, digits: int):
    """A CSV: the header, then the rows of each block (`cells.block_bytes`)
    in turn. Each block is formatted and written before the next is drawn, so
    blocks may be generated lazily and the table never sits in memory whole.
    """
    from . import cells  # loaded by the first CSV only

    with _output(path) as write:
        write((",".join(header) + "\n").encode())
        for columns in blocks:
            write(cells.block_bytes(columns, digits))


def _add_digits(p: argparse.ArgumentParser):
    p.add_argument("--digits", type=int, choices=(6, 17), default=6, help="significant digits in output")


def _add_precision(p: argparse.ArgumentParser):
    p.add_argument("--abstol", type=float, default=1e-10, help="quadrature absolute tolerance")
    p.add_argument("--reltol", type=float, default=1e-6, help="quadrature relative tolerance")
    _add_digits(p)


def _add_spectrum(p: argparse.ArgumentParser):
    """The options `_spectrum_from_args` reads: --h and the truncation."""
    p.add_argument("--h", type=float, default=None,
                   help="aspect ratio of the rectangle (0 < h <= 1; default 1, or the --cache's h)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--count", type=int, metavar="N",
                   help="keep the N smallest nonconstant eigenvalues")
    g.add_argument("--M", type=int, default=None,
                   help="keep the first M roots of each family (default 5)")


def _spectrum_from_args(args) -> Spectrum:
    """The spectrum the truncation flags (or --cache) select; --h defaults to 1.

    A cache fixes h and the truncation: an omitted --h takes the cache's, a
    different one is an error, and so is a truncation flag.
    """
    if getattr(args, "cache", None):
        given = [f"--{dest}" for dest in ("count", "M") if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"--cache fixes the truncation; drop {', '.join(given)}")
        spec = load_spectrum(args.cache)
        if args.h is not None and args.h != spec.rectangle.h:
            raise ValueError(
                f"cache is for h={spec.rectangle.h}, command asked for h={args.h}"
            )
        return spec
    rect = Rectangle(1.0 if args.h is None else args.h)
    if args.count is not None:
        return build_spectrum_by_count(rect, args.count)
    return build_spectrum(rect, 5 if args.M is None else args.M)


def cmd_spectrum(args) -> int:
    out = args.out or "spectrum.json"
    if out == "-" and args.csv in (None, "-"):
        raise ValueError("--out - and the CSV listing would both go to stdout; give --csv PATH")
    spec = _spectrum_from_args(args)
    texts = mode_cells(spec)  # the cache's nu and delta cells are the 17-digit listing's
    if out == "-":
        print(spectrum_to_json(spec, texts), end="")
    else:
        save_spectrum(spec, out, texts)
    families, nu, delta = texts if args.digits == 17 else (texts[0], spec.arrays.nu, spec.arrays.delta)
    columns = [np.arange(spec.size), families, nu, delta]
    _write_columns(args.csv, ("index", "family", "nu", "delta"), [columns], args.digits)
    names = " and ".join("stdout" if p == "-" else p for p in (out, args.csv) if p)
    print(f"wrote {spec.size} modes to {names}", file=sys.stderr)
    return 0


def _mode_columns(spec: Spectrum, *values):
    """Listing columns of the nonconstant modes: index, family, nu, delta, then the value arrays."""
    a = spec.arrays
    names = np.array([tag.value for tag in FamilyTag], dtype="S")[a.code[1:]]
    return [np.arange(1, spec.size), names, a.nu[1:], a.delta[1:], *(np.asarray(v, dtype=float) for v in values)]


def _load_points(spec_text: str):
    """Probe points: 'paper', or 'file:PATH' with one x,y per line (blank lines
    are skipped, and so are header lines starting with x before the first point)."""
    if spec_text == "paper":
        return list(ref.PROBE_POINTS)
    if spec_text.startswith("file:"):
        path = spec_text[5:]
        pts = []
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line or (not pts and line.lower().startswith("x")):
                    continue
                try:
                    a, b = line.split(",")
                    pts.append((float(a), float(b)))
                except ValueError:
                    raise ValueError(f"{path}, line {number}: expected x,y numbers, got {line!r}") from None
        return pts
    raise ValueError(f"--points takes 'paper' or 'file:PATH', got {spec_text!r}")


def _boundary_from_arg(text: str, rect: Rectangle, b=None):
    if text.startswith("builtin:"):
        return builtin_boundary(text[8:], rect, b)
    if text.startswith("expr:"):
        return BoundaryFunction.from_expression(text[5:], rect)
    if text.startswith("file:"):
        with open(text[5:], encoding="utf-8") as fh:
            return boundary_data_from_spec(json.load(fh), rect, b)
    raise ValueError(f"--g takes builtin:NAME, expr:SRC, or file:PATH, got {text!r}")


def _exact_value(args, rect: Rectangle):
    """The value of the exact solution for --with-exact, or None without it.

    The data must be builtin data with a known solution, solved as the
    problem they pose; the solve is measured against catalog.reference_solution.
    """
    if not args.with_exact:
        return None
    exact = exact_solution_for(args.g[8:]) if args.g.startswith("builtin:") else None
    if exact is None:
        raise ValueError(f"--with-exact needs builtin:NAME data with a known solution, got {args.g}")
    if exact.problem.name != args.kind:
        raise ValueError(
            f"--with-exact: {args.g} is {exact.problem.name} data (exact solution "
            f"{exact.name}), not {args.kind} data"
        )
    return reference_solution(exact, args.kind, rect, args.abstol, args.reltol)


_BAND_CELLS = 2**13  # grid values per block of `_grid_rows`


def _grid_rows(U, xs, ys, exact, digits: int):
    """Blocks of columns for bands of about `_BAND_CELLS` values of the grid
    values U, x varying fastest; the axis labels are formatted once, as
    text columns (`cells.float_cells`).

    The exact solution is evaluated row by row with y a Python float, as a
    single-row evaluation would: numpy's array power and sin may differ from
    the scalar path in the last bit of the y-only terms.
    """
    from . import cells  # loaded with the first CSV, as in `_write_columns`

    nx = xs.size
    band = max(1, _BAND_CELLS // nx)
    # each label column cut to its longest cell: a text column's slot is as wide as the column
    xs_text, ys_text = (t[:, :np.count_nonzero(t, axis=1).max()] for t in
                        (cells.float_cells(xs, digits), cells.float_cells(ys, digits)))
    for r in range(0, ys.size, band):
        rows = min(band, ys.size - r)
        u = U[r:r + rows].ravel()
        block = [np.tile(xs_text, (rows, 1)), np.repeat(ys_text[r:r + rows], nx, axis=0), u]
        if exact is not None:
            e = np.concatenate([exact(xs, y) for y in ys[r:r + rows].tolist()])
            block += [e, u - e]
        yield block


def cmd_solve(args, grid_only: bool = False) -> int:
    if args.grid is not None:  # always set for grid, whose --grid defaults to 101
        _require_grid(args.grid, args.grid)
    elif not (args.points or args.print_coefficients):
        raise ValueError("solve writes nothing: give --grid N, --points or --print-coefficients")
    points = None if grid_only or not args.points else np.array(_load_points(args.points), dtype=float).reshape(-1, 2)
    kind = ProblemKind(args.kind, 0.0 if args.b is None else args.b)
    spec = _spectrum_from_args(args)
    rect = spec.rectangle
    if points is not None:
        rect.require_inside(points[:, 0], points[:, 1])
    g = _boundary_from_arg(args.g, rect, kind.b if kind.name == ROBIN else None)
    exact = _exact_value(args, rect)
    u = solve(kind, g, spec, use_corner_reduction=args.corner_reduction, abstol=args.abstol, reltol=args.reltol)
    header = ["x", "y", "u"] + (["exact", "error"] if exact is not None else [])

    if args.print_coefficients:
        _write_columns(None, ("index", "family", "nu", "delta", "coefficient", "weight"),
                       [_mode_columns(spec, u.coefficients.values, u.weights)], args.digits)

    wrote = []
    if args.grid is not None:
        U = u.eval_grid(args.grid, args.grid)
        xs, ys = _grid_axes(rect, args.grid, args.grid)
        _write_columns(args.out, header, _grid_rows(U, xs, ys, exact, args.digits), args.digits)
        wrote.append(args.out or "stdout")

    if points is not None:
        x, y = points[:, 0], points[:, 1]
        columns = [x, y, np.array([u.eval(a, c) for a, c in points.tolist()], dtype=float)]
        if exact is not None:
            e = exact(x, y)
            columns += [e, columns[2] - e]
        if args.format == "json":
            payload = [dict(zip(header, r)) for r in zip(*(c.tolist() for c in columns))]
            text = json.dumps(payload, indent=2)
            if args.points_out in (None, "-"):
                print(text)
            else:
                Path(args.points_out).write_text(text + "\n", encoding="utf-8")
        else:
            _write_columns(args.points_out, header, [columns], args.digits)
        wrote.append(args.points_out or "stdout")
    if wrote:
        print(f"# wrote: {', '.join(wrote)}", file=sys.stderr)
    return 0


def cmd_tables(args) -> int:
    ids = _parse_which(args.which)
    ws = TableWorkspace(args.abstol, args.reltol)
    all_ok = True
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for tid in ids:
        result = reproduce_table(tid, ws, args.policy)
        print(result.summary_line())
        for note in result.notes:
            print(f"  note: {note}")
        all_ok = all_ok and result.n_within == result.n_total
        if outdir:
            blocks = [result.columns()] if result.rows else []
            _write_columns(outdir / f"table_{tid:02d}.csv", result.header, blocks, args.digits)
    print("all tables within tolerance" if all_ok else "some entries out of tolerance")
    return 0 if all_ok else EXIT_CHECK_FAILED


def _parse_which(text: str):
    if text in ("all", None):
        return list(ref.ALL_TABLE_IDS)
    ids = []
    for part in text.split(","):
        ends = part.strip().split("-")  # one id, or the two ends of a range
        if len(ends) > 2 or not all(e.strip().isdigit() for e in ends) or int(ends[0]) > int(ends[-1]):
            raise ValueError(f"--which: {part.strip()!r} is neither a table id nor an ascending range a-b")
        ids.extend(range(int(ends[0]), int(ends[-1]) + 1))
    ids = list(dict.fromkeys(ids))  # a repeated id runs once, at its first place
    bad = [i for i in ids if i not in ref.ALL_TABLE_IDS]
    if bad:
        raise ValueError(f"unknown table ids {bad}; valid ids are 1..14")
    return ids


def cmd_check(args) -> int:
    spec = _spectrum_from_args(args)
    report = invariant_suite(spec, seed=args.seed)
    for c in report.checks:
        print(c.line())
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n", encoding="utf-8")
    print("all checks passed" if report.passed else "CHECK FAILURES")
    return 0 if report.passed else EXIT_CHECK_FAILED


@functools.cache  # one parser per process: parsing returns a fresh namespace each call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Laplace boundary value problems on rectangles by Steklov expansion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="compute and cache eigenpairs")
    _add_spectrum(p)
    _add_digits(p)
    p.add_argument("--out", default="spectrum.json", help="JSON cache path ('-' for stdout)")
    p.add_argument("--csv", default=None, help="CSV listing path (default stdout)")
    p.set_defaults(func=cmd_spectrum)

    for name, grid_only in (("solve", False), ("grid", True)):
        p = sub.add_parser(name, help="solve a boundary value problem")
        _add_spectrum(p)
        _add_precision(p)
        p.add_argument("--kind", choices=("dirichlet", "robin", "neumann"), default="dirichlet")
        p.add_argument("--b", type=float, default=None, help="Robin constant (b > 0; Robin only)")
        p.add_argument("--g", required=True, help="boundary data: builtin:NAME | expr:SRC | file:PATH")
        p.add_argument("--grid", type=int, default=101 if grid_only else None,
                       help="write an N x N grid CSV")
        p.add_argument("--out", default=None, help="grid CSV path (default stdout)")
        if not grid_only:
            p.add_argument("--points", default=None,
                           help="point evaluations: 'paper' or file:PATH")
            p.add_argument("--points-out", dest="points_out", default=None,
                           help="point-evaluation output path (default stdout)")
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="format of point evaluations")
        p.add_argument("--with-exact", dest="with_exact", action="store_true",
                       help="add exact/error columns (builtin data with known solutions only)")
        p.add_argument("--corner-reduction", dest="corner_reduction", action="store_true",
                       help="subtract the corner bilinear before expanding (Dirichlet only)")
        p.add_argument("--print-coefficients", dest="print_coefficients", action="store_true")
        p.add_argument("--cache", default=None, help="load the spectrum from a cache file")
        p.set_defaults(func=lambda a, go=grid_only: cmd_solve(a, grid_only=go))

    # without abbreviations, so that --h is an unknown flag, not --help
    p = sub.add_parser("tables", help="recompute the published tables", allow_abbrev=False)
    _add_precision(p)
    p.add_argument("--which", default="all", help="table ids, e.g. 1-3,11 (default all)")
    p.add_argument("--out", default=None, help="directory for per-table CSVs")
    p.add_argument("--policy", choices=(POLICY_PREFIX, PER_FAMILY, GLOBAL_SORTED),
                   default=POLICY_PREFIX,
                   help="truncation policy (default: the published series-prefix reading)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("check", help="run the invariant suite")
    _add_spectrum(p)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--json", default=None, help="write the report as JSON")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RootFindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ROOTFIND
    except (IncompatibleDataError, GeometryError, QuadratureError, SpectrumError, ValueError, OSError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
