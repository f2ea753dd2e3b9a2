"""Reproduction machinery for the published tables."""

import numpy as np
import pytest

from steklov import ProblemKind, Rectangle, builtin_boundary
from steklov import reference_tables as ref
from steklov.spectrum import PER_FAMILY
from steklov.tables import POLICY_PREFIX, TableWorkspace, reproduce_rerr, reproduce_table


@pytest.mark.parametrize("tid", list(range(1, 15)))
def test_every_table_fully_reproduced(tid, all_table_results):
    result = all_table_results[tid]
    misses = [r for r in result.rows if not r[-2]]
    assert result.n_within == result.n_total, misses


def test_annotated_misprints_are_flagged(all_table_results):
    t1 = all_table_results[1]
    noted = [r for r in t1.rows if r[-1]]
    assert len(noted) == 1
    assert noted[0][0] == "M=2" and noted[0][1] == "P2"
    # table 12's slipped digit sits inside the 5% gate, but the recomputed
    # value must still be closer to the implied figure than to the printed one
    implied = ref.SOLUTION_TABLES[12]["misprints"][("rerr_2", 3)]
    row = next(r for r in all_table_results[12].rows if r[0] == "rerr_2" and r[1] == 3)
    assert abs(row[2] - implied) < abs(row[2] - row[3])
    t13 = all_table_results[13]
    assert any("transposed" in n for n in t13.notes)


def test_corner_reduction_strictly_improves(all_table_results):
    rows = {(r[0], r[1]): r[2] for r in all_table_results[11].rows}
    for m in ref.M_VALUES:
        assert rows[("rerr_inf(f1+4)", m)] < rows[("rerr_inf(f1)", m)]
        assert rows[("rerr_2(f1+4)", m)] < rows[("rerr_2(f1)", m)]


def test_reproduction_is_tight_not_just_within_5pct(all_table_results):
    # the series-prefix reading reproduces every rerr entry to well under 1%
    for tid in range(4, 10):
        for row in all_table_results[tid].rows:
            assert row[4] < 0.01, row


def test_per_family_policy_agrees_on_the_square(workspace):
    # on the square the per-family and prefix readings coincide in effect
    res = reproduce_rerr(7, workspace, policy=PER_FAMILY)
    assert res.n_within == res.n_total


def test_per_family_policy_misses_off_square(workspace):
    # the selection ambiguity: per-family truncation disagrees beyond 5%
    # at h=0.8, which is what forces the series-prefix reading
    res = reproduce_rerr(8, workspace, policy=PER_FAMILY)
    assert res.n_within < res.n_total


def test_unknown_table_id():
    with pytest.raises(ValueError):
        reproduce_table(15)


def test_summary_and_csv_shape(all_table_results):
    r = all_table_results[14]
    assert "table 14" in r.summary_line()
    columns = r.columns()
    assert len(columns) == len(r.header)
    assert all(len(c) == r.n_total for c in columns)


def _count_sweeps(monkeypatch):
    """The (data, h) of every truncation sweep the tables run from here on."""
    import steklov.tables as tables

    real = tables._truncation_errors
    sweeps = []

    def counted(reference, u, subs):
        sweeps.append((reference.__self__.name, u.rect.h))  # reference is the data's value
        return real(reference, u, subs)

    monkeypatch.setattr(tables, "_truncation_errors", counted)
    return sweeps


def test_table_10_reuses_tables_4_to_9(monkeypatch):
    ws = TableWorkspace()
    for tid in range(4, 10):
        reproduce_table(tid, ws)
    sweeps = _count_sweeps(monkeypatch)
    memoised = reproduce_table(10, ws)
    assert sweeps == []
    monkeypatch.undo()
    fresh = reproduce_table(10, TableWorkspace())
    assert memoised.rows == fresh.rows


def test_data_norms_are_computed_once_per_data_h_and_norm(monkeypatch):
    # one sweep per (data, h, policy) yields the data's norms and every rerr
    # entry of tables 4-11: f1-f3 at each height serve its sup and its L2
    # table, f1 at h = 1 also table 11, whose f1+4 adds one sweep
    sweeps = _count_sweeps(monkeypatch)
    want = sorted({(name, h) for name in ("f1", "f2", "f3") for h in (1.0, 0.8, 0.5)} | {("f1+4.0", 1.0)})
    for policy in (POLICY_PREFIX, PER_FAMILY):
        ws = TableWorkspace()
        for tid in range(4, 12):
            reproduce_table(tid, ws, policy)
        assert sorted(sweeps) == want, policy
        sweeps.clear()


def test_sweeps_are_memoised_per_problem_kind():
    # a memo keyed without the kind would return the Dirichlet sweep of bd3
    # for its Robin solve: a boundary L2 error at M = 2 of 0.1757, not 0.0160
    g = builtin_boundary("bd3", Rectangle(1.0))
    ws = TableWorkspace()
    dirichlet = ws.sweep(g, POLICY_PREFIX)
    robin = ws.sweep(g, POLICY_PREFIX, ProblemKind.robin(1.0))
    fresh = TableWorkspace().sweep(g, POLICY_PREFIX, ProblemKind.robin(1.0))
    np.testing.assert_array_equal(robin, fresh)
    assert not np.array_equal(robin, dirichlet)
    assert ws.sweep(g, POLICY_PREFIX) is dirichlet
