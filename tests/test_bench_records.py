"""Every BENCH_*.json at the repository root is a benchmark record that
says where and against what it was measured: the machine (core count,
Python and numpy versions), the parent commit, and the benchmark command."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_names_machine_parent_and_command(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    assert isinstance(machine["cores"], int) and machine["cores"] > 0
    for field in ("python", "numpy"):
        assert isinstance(machine[field], str) and machine[field]
    assert isinstance(record["parent_commit"], str) and record["parent_commit"]
    assert isinstance(record["benchmark"]["command"], str) and record["benchmark"]["command"]
