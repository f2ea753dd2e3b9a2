"""Recompute the published error tables and grade the agreement.

Each reproduction returns a TableResult whose rows pair a computed entry
with the printed one, plus an agreement flag at the standard tolerances
(1e-4 absolute for pointwise entries, 5 percent relative for rerr entries).
Annotated misprints are graded against the value implied by the table's own
internal arithmetic, and the note column says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import reference_tables as ref
from .analysis import _truncation_errors
from .boundary import BoundaryFunction, steklov_coefficients
from .catalog import builtin_boundary, exact_solution_for
from .geometry import Rectangle
from .solvers import DIRICHLET, ProblemKind, solve, solve_dirichlet
from .spectrum import (
    GLOBAL_SORTED,
    PER_FAMILY,
    Spectrum,
    build_spectrum,
    build_spectrum_by_count,
)

POLICY_PREFIX = "prefix"  # first 8M series terms; the published reading


@dataclass
class TableResult:
    table_id: int
    title: str
    header: tuple
    rows: list
    tolerance: str
    notes: list = field(default_factory=list)

    @property
    def n_total(self) -> int:
        return len(self.rows)

    @property
    def n_within(self) -> int:
        return sum(1 for r in self.rows if r[-2])

    def summary_line(self) -> str:
        return (
            f"table {self.table_id}: {self.n_within}/{self.n_total} entries "
            f"within {self.tolerance}"
        )

    def columns(self) -> list:
        """The rows as the columns of one CSV block: a float column as a float
        array, any other as the str of each cell."""
        return [np.array(c) if isinstance(c[0], float) else [str(v) for v in c] for c in zip(*self.rows)]


# Modes of the deep global spectrum that the series-prefix and global tables truncate.
_DEEP_COUNT = 41


class TableWorkspace:
    """Memoizes spectra, coefficient sets and truncation sweeps across table reproductions."""

    def __init__(self, abstol: float = 1e-10, reltol: float = 1e-6):
        self.abstol = abstol
        self.reltol = reltol
        self._spectra: dict = {}
        self._coeffs: dict = {}
        self._sweeps: dict = {}  # (data, h, policy, kind) -> _truncation_errors of the M_VALUES truncations

    def deep_spectrum(self, h: float) -> Spectrum:
        if h not in self._spectra:
            self._spectra[h] = build_spectrum_by_count(Rectangle(h), _DEEP_COUNT)
        return self._spectra[h]

    def per_family_spectrum(self, h: float, m: int) -> Spectrum:
        key = ("pf", h)
        if key not in self._spectra:
            self._spectra[key] = build_spectrum(Rectangle(h), 5, PER_FAMILY)
        return self._spectra[key].select(m)

    def coefficients(self, g: BoundaryFunction, spec: Spectrum):
        """The coefficients of g against spec, once per (data, h, selection)."""
        key = (g.name, g.rect.h, spec.selection)
        if key not in self._coeffs:
            self._coeffs[key] = steklov_coefficients(g, spec, self.abstol, self.reltol)
        return self._coeffs[key]

    def sweep(self, g: BoundaryFunction, policy: str, kind: ProblemKind = ProblemKind.dirichlet()):
        """(sup, L2) of the reference trace and of its error at every M of M_VALUES.

        The solve of g under kind over the policy's base spectrum, truncated
        to each M, against the reference: g itself for Dirichlet, otherwise
        the trace of the catalog's exact solution for g. Entry 0 holds the
        norms of the reference, entry 1 + i those of the error at
        M_VALUES[i]. One _truncation_errors sweep per (data, h, policy, kind).
        """
        h = g.rect.h
        key = (g.name, h, policy, kind)
        if key not in self._sweeps:
            if kind.name == DIRICHLET:
                reference = g.value
            else:
                reference = BoundaryFunction.from_xy(exact_solution_for(g.name).value, g.rect).value
            base = self.base_spectrum(h, policy)
            u = solve(kind, g, base, coefficients=self.coefficients(g, base))
            subs = [self.truncation(h, kind.name, m, policy) for m in ref.M_VALUES]
            self._sweeps[key] = _truncation_errors(reference, u, subs)
        return self._sweeps[key]

    def base_spectrum(self, h: float, policy: str) -> Spectrum:
        """The spectrum coefficients are computed against, per policy."""
        if policy == PER_FAMILY:
            return self.per_family_spectrum(h, 5)
        return self.deep_spectrum(h)

    def truncation(self, h: float, kind: str, m: int, policy: str) -> Spectrum:
        if policy == POLICY_PREFIX:
            return self.deep_spectrum(h).head(ref.nonconstant_count(kind, m))
        if policy == PER_FAMILY:
            return self.per_family_spectrum(h, m)
        if policy == GLOBAL_SORTED:
            return self.deep_spectrum(h).select(m)
        raise ValueError(f"unknown policy {policy!r}")


def _grade_abs(computed, printed, tol, implied=None):
    within = abs(computed - printed) <= tol
    note = ""
    if not within and implied is not None:
        within = abs(computed - implied) <= tol
        note = f"printed {printed:.6g} inconsistent with its own table; matched implied {implied:.6g}"
    return within, note


def _grade_rel(computed, printed, tol, implied=None):
    within = abs(computed - printed) <= tol * abs(printed)
    note = ""
    if not within and implied is not None:
        within = abs(computed - implied) <= tol * abs(implied)
        note = f"printed {printed:.6g} inconsistent; matched implied {implied:.6g}"
    return within, note


def reproduce_pointwise(table_id: int, ws: Optional[TableWorkspace] = None,
                        policy: str = POLICY_PREFIX) -> TableResult:
    ws = ws or TableWorkspace()
    data = ref.POINTWISE_TABLES[table_id]
    name, h = data["data"], data["h"]
    rect = Rectangle(h)
    g = builtin_boundary(name, rect)
    exact = exact_solution_for(name)
    coeffs = ws.coefficients(g, ws.base_spectrum(h, policy))

    header = ("row", "point", "computed", "printed", "abs_diff", "within", "note")
    rows = []
    for m in ref.M_VALUES:
        sub = ws.truncation(h, "dirichlet", m, policy)
        u = solve_dirichlet(g, sub, coefficients=coeffs.restrict(sub))
        for j, point in enumerate(ref.PROBE_POINTS):
            val = u.eval(*point)
            printed = data["rows"][m][j]
            implied = data["misprints"].get((m, j))
            within, note = _grade_abs(val, printed, ref.POINTWISE_TOL, implied)
            rows.append((f"M={m}", f"P{j+1}", val, printed, abs(val - printed), within, note))
            err = abs(val - exact.value(*point))
            printed_err = data["abs_err"][m][j]
            within_e, note_e = _grade_abs(err, printed_err, ref.POINTWISE_TOL)
            rows.append((f"D{m}", f"P{j+1}", err, printed_err, abs(err - printed_err), within_e, note_e))
    for j, point in enumerate(ref.PROBE_POINTS):
        val = exact.value(*point)
        printed = data["exact"][j]
        within, note = _grade_abs(val, printed, 1e-6)
        rows.append(("exact", f"P{j+1}", val, printed, abs(val - printed), within, note))
    return TableResult(
        table_id,
        f"pointwise {name}, h={h}",
        header,
        rows,
        "1e-4 abs (values and errors), 1e-6 abs (exact row)",
    )


def _graded_rerr(norms, i: int, printed: float, implied=None):
    """(computed, printed, rel_diff, within, note) of the relative error
    norms[1 + i] / norms[0] at M_VALUES[i], graded against the printed entry."""
    val = float(norms[1 + i] / norms[0])
    within, note = _grade_rel(val, printed, ref.RERR_TOL, implied)
    return val, printed, abs(val - printed) / printed, within, note


def reproduce_rerr(table_id: int, ws: Optional[TableWorkspace] = None,
                   policy: str = POLICY_PREFIX) -> TableResult:
    ws = ws or TableWorkspace()
    data = ref.RERR_TABLES[table_id]
    norm, h = data["norm"], data["h"]
    header = ("data", "M", "computed", "printed", "rel_diff", "within", "note")
    rows = []
    for name, printed_row in data["values"].items():
        sup, l2 = ws.sweep(builtin_boundary(name, Rectangle(h)), policy)
        for i, m in enumerate(ref.M_VALUES):
            rows.append((name, m, *_graded_rerr(sup if norm == "inf" else l2, i, printed_row[i])))
    return TableResult(table_id, f"rerr_{norm} of f1/f2/f3, h={h}", header, rows, "5% rel")


def reproduce_rerr_combined(ws: Optional[TableWorkspace] = None,
                            policy: str = POLICY_PREFIX) -> TableResult:
    ws = ws or TableWorkspace()
    header = ("h", "norm", "data", "M", "computed", "printed", "rel_diff", "within", "note")
    rows = []
    for tid in range(4, 10):
        sub = reproduce_rerr(tid, ws, policy)
        data = ref.RERR_TABLES[tid]
        for name, m, val, printed, rel, within, note in sub.rows:
            rows.append((data["h"], data["norm"], name, m, val, printed, rel, within, note))
    return TableResult(10, "combined boundary rerr view", header, rows, "5% rel")


def reproduce_corner(ws: Optional[TableWorkspace] = None,
                     policy: str = POLICY_PREFIX) -> TableResult:
    ws = ws or TableWorkspace()
    g = builtin_boundary("f1", Rectangle(ref.CORNER_TABLE["h"]))
    # f1's corner bilinear is the constant -4
    (sup, l2), (sup_r, l2_r) = ws.sweep(g, policy), ws.sweep(g.shift(4.0), policy)
    header = ("column", "M", "computed", "printed", "rel_diff", "within", "note")
    columns = (("rerr_inf(f1)", sup), ("rerr_inf(f1+4)", sup_r), ("rerr_2(f1)", l2), ("rerr_2(f1+4)", l2_r))
    rows = []
    for i, m in enumerate(ref.M_VALUES):
        for (col, norms), printed in zip(columns, ref.CORNER_TABLE["rows"][m]):
            rows.append((col, m, *_graded_rerr(norms, i, printed)))
    return TableResult(11, "corner reduction, f1 vs f1+4, h=1", header, rows, "5% rel")


def reproduce_solution(table_id: int, ws: Optional[TableWorkspace] = None,
                       policy: str = POLICY_PREFIX) -> TableResult:
    ws = ws or TableWorkspace()
    data = ref.SOLUTION_TABLES[table_id]
    name, h = data["data"], data["h"]
    rect = Rectangle(h)
    g = builtin_boundary(name, rect)
    exact = exact_solution_for(name)
    kind = ProblemKind.neumann() if data["kind"] == "neumann" else ProblemKind.robin(data["b"])
    sup, l2 = ws.sweep(g, policy, kind)

    swapped = data["columns_swapped"]
    notes = []
    if swapped:
        notes.append(
            "printed rerr_inf/rerr_2 columns are transposed; graded against the swap"
        )

    header = ("norm", "M", "computed", "printed", "rel_diff", "within", "note")
    rows = []
    for i, m in enumerate(ref.M_VALUES):
        for col, other, norms in (("rerr_inf", "rerr_2", sup), ("rerr_2", "rerr_inf", l2)):
            printed_col = other if swapped else col
            implied = data["misprints"].get((printed_col, m))
            *graded, note = _graded_rerr(norms, i, data[printed_col][i], implied)
            if swapped and not note:
                note = f"printed under the {printed_col} head"
            rows.append((col, m, *graded, note))
    title = f"{kind.name} experiment, data {name}, exact {exact.name}, h={h}"
    return TableResult(table_id, title, header, rows, "5% rel", notes)


def reproduce_table(table_id: int, ws: Optional[TableWorkspace] = None,
                    policy: str = POLICY_PREFIX) -> TableResult:
    if table_id in ref.POINTWISE_TABLES:
        return reproduce_pointwise(table_id, ws, policy)
    if table_id in ref.RERR_TABLES:
        return reproduce_rerr(table_id, ws, policy)
    if table_id == 10:
        return reproduce_rerr_combined(ws, policy)
    if table_id == 11:
        return reproduce_corner(ws, policy)
    if table_id in ref.SOLUTION_TABLES:
        return reproduce_solution(table_id, ws, policy)
    raise ValueError(f"no table {table_id}; valid ids are 1..14")
