"""The computed entries of tables 1-14 under every truncation policy, against
a recorded copy.

tests/golden_tables.json holds, per policy and table, the row count, the
table notes and, per row, the computed entry, its `within` flag and its
note. A refactor that keeps the numbers must keep every entry to 1e-12
relative and every flag and note exactly. After a deliberate change of the
numbers, regenerate the file with

    PYTHONPATH=src python tests/test_golden_tables.py

and say in the change why the entries moved.
"""

import json
import math
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


def main():
    """Write the records of every policy, one table row per line."""
    blocks = []
    for policy in POLICIES:
        tables = []
        for tid, rec in policy_records(policy).items():
            entries = ",\n".join("    " + json.dumps(e) for e in rec["entries"])
            tables.append(f'  "{tid}": {{"rows": {rec["rows"]}, "notes": {json.dumps(rec["notes"])}, '
                          f'"entries": [\n{entries}\n  ]}}')
        blocks.append(f' "{policy}": {{\n' + ",\n".join(tables) + "\n }")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
