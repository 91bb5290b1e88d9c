"""CLI outputs against the reference the benchmark records.

`perfbench/reference.json` holds, per benchmark task, the exit status, the
verdict and selected CSV columns of one recorded run.  Two demo tasks are
rerun here so that numeric drift of the CLI shows in the test suite, not
only in the benchmark.  The reference file is read, never written.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from zygmund.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
GROWING = str(ROOT / "demos" / "configs" / "growing.cfg")

TASKS = {
    "rate-growing": ["rate-check", "--config", GROWING],
    "witness-64": ["witness", "--config", GROWING, "--n", "64"],
}


def _same(value: str, expected: str) -> bool:
    try:
        a, b = float(value), float(expected)
    except ValueError:
        return value == expected
    return math.isclose(a, b, rel_tol=1.0e-6, abs_tol=0.0)


@pytest.mark.parametrize("task", sorted(TASKS))
def test_cli_matches_reference(task, tmp_path, capsys):
    ref = REFERENCE[task]
    rc = main(TASKS[task] + ["--out", str(tmp_path)])
    assert rc == ref["rc"]
    if ref["verdict"] is not None:
        assert capsys.readouterr().out.split(" within")[0].split(":")[0] == ref["verdict"]
    for name, columns in ref["files"].items():
        with open(tmp_path / name, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        for column, expected in columns.items():
            got = [row[column] for row in rows]
            assert len(got) == len(expected), f"{name}:{column}"
            for i, (g, e) in enumerate(zip(got, expected)):
                assert _same(g, e), f"{name}:{column} row {i}: {g} vs reference {e}"
