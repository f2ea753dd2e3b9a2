"""A spectrum is its mode arrays: records are built only on request, per-mode
results are read-only arrays, and sub-spectra are row subsets."""

import math
import re

import numpy as np
import pytest

from steklov import (
    FamilyTag,
    Rectangle,
    Side,
    builtin_boundary,
    build_spectrum,
    build_spectrum_by_count,
    invariant_suite,
    solve_dirichlet,
    solve_neumann,
    solve_robin,
    spectrum_to_json,
    steklov_coefficients,
)
from steklov.reference_tables import ALL_TABLE_IDS
from steklov.spectrum import GLOBAL_SORTED, PER_FAMILY
from steklov.tables import POLICY_PREFIX, TableWorkspace, reproduce_table


@pytest.fixture(scope="module")
def spec400():
    return build_spectrum_by_count(Rectangle(0.8), 400)


def solves(spec):
    """A Dirichlet, a Robin and a Neumann solve on spec, sharing coefficient sets."""
    rect = spec.rectangle
    co = steklov_coefficients(builtin_boundary("f3", rect), spec)
    co_n = steklov_coefficients(builtin_boundary("bd2", rect), spec)
    return co, (solve_dirichlet(builtin_boundary("f3", rect), spec, coefficients=co),
                solve_robin(builtin_boundary("f3", rect), 2.0, spec, coefficients=co),
                solve_neumann(builtin_boundary("bd2", rect), spec, coefficients=co_n))


def test_records_stay_lazy_through_a_solve(spec400):
    spec = build_spectrum_by_count(spec400.rectangle, 400)  # a spectrum of its own
    co, approximations = solves(spec)
    sub = spec.head(100)
    for u in approximations:
        u.eval_grid(21, 17)
        u.eval(0.3, -0.2)
        u.gradient_arrays(np.array([0.1, -0.4]), np.array([0.2, 0.0]))
        u.boundary_value(Side.G2, np.linspace(-1.0, 1.0, 9))
        u.restrict(sub).eval(0.5, 0.1)
    co.restrict(spec.select(12))
    assert invariant_suite(spec, seed=0).passed
    spectrum_to_json(spec)
    for s in (spec, sub):
        assert "modes" not in s.__dict__ and "nonconstant" not in s.__dict__
    # the view is there on request, one record per row
    assert [md.index for md in spec.modes] == list(range(spec.size))
    assert spec.nonconstant[4].nu == spec.arrays.nu[5]


@pytest.mark.parametrize("policy", (POLICY_PREFIX, PER_FAMILY, GLOBAL_SORTED))
def test_records_stay_lazy_through_the_tables(policy):
    ws = TableWorkspace()
    for tid in ALL_TABLE_IDS:
        reproduce_table(tid, ws, policy)
    assert ws._spectra
    for spec in ws._spectra.values():
        assert "modes" not in spec.__dict__


def test_per_mode_results_are_read_only(spec400):
    co, (u_d, u_r, u_n) = solves(spec400)
    assert u_d.weights is co.values
    restricted = [co.restrict(spec400.head(40)), u_r.restrict(spec400.select(5))]
    arrays = [co.values, co.estimates, u_d.weights, u_r.weights, u_n.weights, u_n.coefficients.values,
              restricted[0].values, restricted[0].estimates, restricted[1].weights]
    for a in arrays:
        assert a.dtype == np.float64 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
        with pytest.raises(ValueError):
            a *= 2.0


def test_weights_are_coefficients_over_b_plus_delta(spec400):
    co, (_, u_r, _) = solves(spec400)
    delta = spec400.arrays.delta[1:]
    assert np.array_equal(u_r.weights, co.values / (2.0 + delta))
    j = 17
    assert u_r.weights[j] == co.values[j] / (2.0 + spec400.nonconstant[j].delta)


def test_restrict_maps_rows_by_family_and_nu(spec400):
    co, _ = solves(spec400)
    # a per-family truncation picks rows out of order relative to a prefix
    sub = build_spectrum(spec400.rectangle, 3)
    deep = build_spectrum(spec400.rectangle, 5)
    co_deep = steklov_coefficients(builtin_boundary("f3", spec400.rectangle), deep)
    cox = co_deep.restrict(sub)
    for j, md in enumerate(sub.nonconstant):
        row = next(md2.index for md2 in deep.nonconstant if md2.key == md.key)
        assert cox.values[j] == co_deep.values[row - 1]
        assert cox.estimates[j + 1] == co_deep.estimates[row]
    assert cox.estimates[0] == co_deep.estimates[0] and cox.gbar == co_deep.gbar
    assert np.array_equal(co.restrict(spec400).values, co.values)


def test_restrict_to_another_rectangle_names_the_first_missing_mode(spec400):
    co, _ = solves(spec400)
    other = build_spectrum_by_count(Rectangle(0.5), 10)
    md = other.nonconstant[0]
    with pytest.raises(ValueError, match=re.escape(f"mode {md.family.value}, nu={md.nu!r} is not in")):
        co.restrict(other)


def test_restrict_to_a_mode_absent_from_the_parent(spec400):
    co, _ = solves(spec400)
    parent = spec400.head(30)
    co30 = co.restrict(parent)
    md = spec400.nonconstant[30]  # the first mode beyond the parent's
    with pytest.raises(ValueError, match=re.escape(f"mode {md.family.value}, nu={md.nu!r} is not in")):
        co30.restrict(spec400.head(60))
    assert co30.restrict(parent.head(10)).values.size == 10


def test_take_and_head_are_row_subsets(spec400):
    head = spec400.head(25)
    assert (head.selection, head.depth, head.size) == (GLOBAL_SORTED, 25, 26)
    for a, b in zip(head.arrays, spec400.arrays):
        assert np.array_equal(a, b[:26])
    rows = np.array([0, 3, 9, 40])
    taken = spec400.take(rows)
    assert (taken.selection, taken.depth) == (spec400.selection, spec400.depth)
    assert [md.key for md in taken.modes] == [spec400.modes[i].key for i in rows]
    assert spec400.take(rows, depth=7).depth == 7
    assert spec400.family(0) is FamilyTag.CONST
    with pytest.raises(ValueError):
        spec400.head(401)
    assert spec400.head(400).size == spec400.size
    assert math.isclose(spec400.max_delta, spec400.modes[-1].delta, rel_tol=0.0)


def test_structure_check_reads_the_arrays(spec400):
    from steklov.analysis import SuiteReport, check_structure

    assert check_structure(spec400).passed is True
    rows = np.arange(spec400.size)
    for broken in (spec400.take(rows[::-1]), spec400.take(np.r_[rows, 7])):
        result = check_structure(broken)
        assert result.passed is False
        assert '"passed": false' in SuiteReport((result,)).to_json()
