"""Output checks of benchmark tasks against a reference recorded from the CLI.

A task passes when
- its exit status and verdict equal the reference's;
- every reference column of every reference CSV is present, matched by
  header name (so added or reordered columns do not fail the check), and
  agrees with the reference: text exactly, numbers to relative tolerance
  RTOL;
- best approximation never exceeds the Zygmund deviation
  (best_value <= zygmund_deviation in best_vs_method.csv);
- every seeded unit-ball deviation stays at or below the majorant of its
  (n, q) (unit_ball.csv against majorant.csv).

`lower_bound_violations` counts rate_report.csv rows with
lower_bound > deviation.  It is reported, not failed: the column is not yet
a certified bound.

Run this file to self-check the check: it must accept the reference outputs
and catch a perturbed deviation, a non-zero exit and both broken
inequalities.
"""

from __future__ import annotations

import csv
import itertools
import json
import shutil
import sys
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Relative tolerance of the numeric comparison.  The quadrature stops at
# 1e-8 (calibration) to 1e-10 (deviation norms); 1e-6 admits any change of
# quadrature that still meets those tolerances and catches a wrong result.
RTOL = 1.0e-6

# Columns compared with the reference, by file.  Verdict columns are text.
COMPARED = {
    "rate_report.csv": ("n", "deviation"),
    "witness.csv": ("n", "alpha0", "I_closed", "deviation"),
    "best_vs_method.csv": ("n", "zygmund_deviation"),
    "vnad_table.csv": ("r", "case", "verdict"),
    "majorant.csv": ("n", "q", "majorant"),
}


def read_columns(path: Path) -> dict[str, list[str]]:
    """CSV file as {header name: column values}."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    names = rows[0].keys() if rows else ()
    return {name: [row[name] for row in rows] for name in names}


def verdict(stdout: str) -> str | None:
    """The verdict a command prints: BANDED / NOT BANDED, or the regime."""
    for line in stdout.splitlines():
        if line.startswith(("BANDED", "NOT BANDED")):
            return line.split(" within")[0].split(":")[0]
        if line.startswith("regime"):
            return line.split(":", 1)[1].strip()
    return None


def record(rc: int, stdout: str, out_dir: Path) -> dict:
    """Reference entry for one task run."""
    files = {}
    for name, columns in COMPARED.items():
        if (out_dir / name).exists():
            table = read_columns(out_dir / name)
            files[name] = {c: table[c] for c in columns}
    return {"rc": rc, "verdict": verdict(stdout), "files": files}


def _agree(value: str, expected: str) -> bool:
    if value == expected:
        return True
    try:
        a, b = float(value), float(expected)
    except ValueError:
        return False
    return abs(a - b) <= RTOL * abs(b)


def check_task(ref: dict, rc: int, stdout: str, out_dir: Path) -> list[str]:
    """Problems with one task run; an empty list means it passed."""
    problems = []
    if rc != ref["rc"]:
        problems.append(f"exit status {rc}, expected {ref['rc']}")
    if verdict(stdout) != ref["verdict"]:
        problems.append(f"verdict {verdict(stdout)!r}, expected {ref['verdict']!r}")
    tables = {}
    for name, columns in ref["files"].items():
        try:
            tables[name] = table = read_columns(out_dir / name)
        except OSError as exc:
            problems.append(f"{name}: {exc.strerror}")
            continue
        for column, expected in columns.items():
            values = table.get(column)
            if values is None:
                problems.append(f"{name}: no column {column!r}")
            elif len(values) != len(expected):
                problems.append(f"{name}:{column}: {len(values)} rows, expected {len(expected)}")
            else:
                bad = [i for i, (v, e) in enumerate(zip(values, expected)) if not _agree(v, e)]
                if bad:
                    i = bad[0]
                    problems.append(f"{name}:{column} row {i}: {values[i]} vs reference {expected[i]}")
    problems.extend(_inequalities(tables, out_dir))
    return problems


def _inequalities(tables: dict, out_dir: Path) -> list[str]:
    problems = []
    best = tables.get("best_vs_method.csv")
    if best is not None:
        if not {"best_value", "zygmund_deviation"} <= best.keys():
            return problems + ["best_vs_method.csv: no best_value or zygmund_deviation column"]
        for n, b, z in zip(best["n"], best["best_value"], best["zygmund_deviation"]):
            if not float(b) <= float(z):
                problems.append(f"n={n}: best_value {b} > zygmund_deviation {z}")
    majorant = tables.get("majorant.csv")
    if majorant is not None:
        bound = {(n, q): float(m) for n, q, m in zip(majorant["n"], majorant["q"], majorant["majorant"])}
        try:
            ball = read_columns(out_dir / "unit_ball.csv")
        except OSError as exc:
            return problems + [f"unit_ball.csv: {exc.strerror}"]
        for n, q, d in zip(ball["n"], ball["q"], ball["deviation"]):
            m = bound.get((n, q))
            if m is None or not float(d) <= m:
                problems.append(f"n={n} q={q}: unit-ball deviation {d} above majorant {m!r}")
    return problems


def lower_bound_violations(out_dir: Path) -> int:
    """Rows of rate_report.csv whose lower_bound exceeds the deviation."""
    path = out_dir / "rate_report.csv"
    if not path.exists():
        return 0
    table = read_columns(path)
    lowers, deviations = table.get("lower_bound", ()), table.get("deviation", ())
    return sum(float(lo) > float(d) for lo, d in zip(lowers, deviations))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _write_csv(path: Path, columns: dict[str, list[str]]) -> None:
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    path.write_text("\n".join([",".join(names), *(",".join(row) for row in rows)]) + "\n")


def self_check(reference: dict, scratch: Path) -> list[str]:
    """Failures of the check itself, judged on outputs built from the reference.

    Writes the synthetic outputs under `scratch`, which it empties first.
    """
    shutil.rmtree(scratch, ignore_errors=True)
    failures = []
    cases = itertools.count()

    def rejects(ref, rc, files) -> bool:
        out = scratch / str(next(cases))
        out.mkdir(parents=True)
        for name, columns in files.items():
            _write_csv(out / name, columns)
        stdout = f"{ref['verdict']} within 1 (self-check)\n" if ref["verdict"] else ""
        return bool(check_task(ref, rc, stdout, out))

    rate = reference["rate-growing"]
    good = rate["files"]["rate_report.csv"]
    if rejects(rate, 0, rate["files"]):
        failures.append("reference outputs were rejected")
    deviation = list(good["deviation"])
    deviation[-1] = repr(float(deviation[-1]) * (1.0 + 100 * RTOL))
    if not rejects(rate, 0, {"rate_report.csv": {**good, "deviation": deviation}}):
        failures.append("a perturbed deviation was accepted")
    if not rejects(rate, 1, rate["files"]):
        failures.append("a non-zero exit was accepted")

    best = reference["best-growing"]
    table = best["files"]["best_vs_method.csv"]
    above = [repr(float(z) * 1.01) for z in table["zygmund_deviation"]]
    if not rejects(best, 0, {"best_vs_method.csv": {**table, "best_value": above}}):
        failures.append("best_value > zygmund_deviation was accepted")

    major = reference["majorant-q1.5"]
    table = major["files"]["majorant.csv"]
    above = [repr(float(m) * 1.01) for m in table["majorant"]]
    ball = {"n": table["n"], "q": table["q"], "deviation": above}
    if not rejects(major, 0, {**major["files"], "unit_ball.csv": ball}):
        failures.append("a unit-ball deviation above its majorant was accepted")
    return failures


if __name__ == "__main__":
    found = self_check(load_reference(), Path(__file__).resolve().parent.parent / ".perfbench_work" / "self_check")
    for failure in found:
        print(f"FAIL: {failure}")
    print("self-check", "FAILED" if found else "passed")
    sys.exit(1 if found else 0)
