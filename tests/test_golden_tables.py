"""The computed entries of tables 1-14 under every truncation policy, against
a recorded copy.

tests/golden_tables.json holds, per policy and table, the row count, the
table notes and, per row, the computed entry, its `within` flag and its
note. A refactor that keeps the numbers must keep every entry to 1e-12
relative and every flag and note exactly. After a deliberate change of the
numbers, regenerate the file with

    PYTHONPATH=src python tests/test_golden_tables.py

and say in the change why the entries moved. Before it writes, the script
prints how many entries moved, the largest absolute and relative move with
its (policy, table, row), and then every moved entry: its (policy, table,
row), old -> new value and absolute and relative move. It writes nothing,
and exits 1, when a row count, a note or a `within` flag differs from the
recorded file.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from steklov import reference_tables as ref
from steklov.spectrum import GLOBAL_SORTED, PER_FAMILY
from steklov.tables import POLICY_PREFIX, TableWorkspace, reproduce_table

GOLDEN = Path(__file__).with_name("golden_tables.json")
POLICIES = (POLICY_PREFIX, PER_FAMILY, GLOBAL_SORTED)
RTOL = 1e-12


def table_record(result) -> dict:
    """Row count, notes and (computed, within, note) per row of a TableResult."""
    col = result.header.index("computed")
    return {
        "rows": result.n_total,
        "notes": list(result.notes),
        "entries": [[float(r[col]), bool(r[-2]), r[-1]] for r in result.rows],
    }


def policy_records(policy: str) -> dict:
    """The records of tables 1-14 under policy, from one fresh workspace."""
    ws = TableWorkspace()
    return {str(tid): table_record(reproduce_table(tid, ws, policy)) for tid in ref.ALL_TABLE_IDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("policy", POLICIES)
def test_tables_match_recorded_entries(policy, golden, all_table_results):
    if policy == POLICY_PREFIX:
        got = {str(tid): table_record(r) for tid, r in all_table_results.items()}
    else:
        got = policy_records(policy)
    want = golden[policy]
    assert sorted(got, key=int) == sorted(want, key=int)
    for tid, rec in want.items():
        have = got[tid]
        assert have["rows"] == rec["rows"] == len(have["entries"]), f"table {tid}"
        assert have["notes"] == rec["notes"], f"table {tid}"
        for i, ((value, within, note), (ref_value, ref_within, ref_note)) in enumerate(
            zip(have["entries"], rec["entries"])
        ):
            where = f"{policy} table {tid} row {i}"
            assert math.isclose(value, ref_value, rel_tol=RTOL, abs_tol=0.0), (where, value, ref_value)
            assert within == ref_within, where
            assert note == ref_note, where


def test_audit_reports_moves_and_names_changed_flags_notes_and_rows():
    old = {"prefix": {"1": {"rows": 2, "notes": [], "entries": [[-2.5, True, ""], [1.5e-7, True, ""]]}}}
    new = json.loads(json.dumps(old))
    new["prefix"]["1"]["entries"][1][0] = 1.5e-7 + 3e-15
    report, mismatches = audit(old, new)
    assert mismatches == []
    assert report[0] == "1 of 2 entries moved"
    assert report[1].startswith("largest absolute move 3e-15") and report[1].endswith("on prefix table 1 row 1")
    assert report[2].startswith("largest relative move 2e-08")
    assert report[3:] == ["prefix table 1 row 1: 1.5e-07 -> 1.50000003e-07 (3e-15 absolute, 2e-08 relative)"]
    new["prefix"]["1"]["entries"][0][1] = False
    new["prefix"]["1"]["notes"] = ["a note"]
    assert len(audit(old, new)[1]) == 2
    new["prefix"]["1"]["rows"] = 3
    assert audit(old, new)[1] == ["prefix table 1: 2 rows -> 3"]
    assert audit(old, {"prefix": {}})[1] == ["prefix table 1: only in the recorded records"]


def audit(old: dict, new: dict):
    """(report, mismatches) of the records new against the recorded old:
    report says how many entries moved, the largest absolute and relative
    moves, and then lists every moved entry, old -> new; mismatches names every table, row count, note and row
    `within` flag or note that differs."""
    mismatches, moves = [], []
    for policy in sorted(old.keys() | new.keys()):
        was, now = old.get(policy, {}), new.get(policy, {})
        for tid in sorted(was.keys() | now.keys(), key=int):
            where = f"{policy} table {tid}"
            if tid not in was or tid not in now:
                mismatches.append(f"{where}: only in the {'new' if tid in now else 'recorded'} records")
                continue
            a, b = was[tid], now[tid]
            if (a["rows"], len(a["entries"])) != (b["rows"], len(b["entries"])):
                mismatches.append(f"{where}: {a['rows']} rows -> {b['rows']}")
                continue
            if a["notes"] != b["notes"]:
                mismatches.append(f"{where}: notes {a['notes']} -> {b['notes']}")
            for i, ((v0, within0, note0), (v1, within1, note1)) in enumerate(zip(a["entries"], b["entries"])):
                if (within0, note0) != (within1, note1):
                    mismatches.append(f"{where} row {i}: within {within0} -> {within1}, note {note0!r} -> {note1!r}")
                if v1 != v0:
                    moves.append((abs(v1 - v0), abs(v1 - v0) / abs(v0) if v0 else math.inf, f"{where} row {i}", v0, v1))
    entries = sum(len(rec["entries"]) for tables in new.values() for rec in tables.values())
    report = [f"{len(moves)} of {entries} entries moved"]
    if moves:
        worst = max(moves, key=lambda m: m[0])
        report.append(f"largest absolute move {worst[0]:.3g} ({worst[1]:.3g} relative) on {worst[2]}")
        worst = max(moves, key=lambda m: m[1])
        report.append(f"largest relative move {worst[1]:.3g} ({worst[0]:.3g} absolute) on {worst[2]}")
    report += [f"{where}: {v0!r} -> {v1!r} ({a:.3g} absolute, {r:.3g} relative)" for a, r, where, v0, v1 in moves]
    return report, mismatches


def main() -> int:
    """Audit the records of every policy against the recorded file, then
    write them, one table row per line, unless a flag, note or row count
    differs."""
    records = {policy: policy_records(policy) for policy in POLICIES}
    report, mismatches = audit(json.loads(GOLDEN.read_text(encoding="utf-8")), records)
    print("\n".join(report))
    if mismatches:
        print(f"not written: {len(mismatches)} differences beyond the entries' values", *mismatches, sep="\n")
        return 1
    blocks = []
    for policy, records_of in records.items():
        tables = []
        for tid, rec in records_of.items():
            entries = ",\n".join("    " + json.dumps(e) for e in rec["entries"])
            tables.append(f'  "{tid}": {{"rows": {rec["rows"]}, "notes": {json.dumps(rec["notes"])}, '
                          f'"entries": [\n{entries}\n  ]}}')
        blocks.append(f' "{policy}": {{\n' + ",\n".join(tables) + "\n }")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
