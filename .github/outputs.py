"""Output snapshot: run the shipped commands and keep all that they print and write.

    python .github/outputs.py OUTDIR

Runs each command below in a child with one BLAS thread, from the root of
the checkout that holds this script and with its src/ first on PYTHONPATH:

- `classify`, `rate-check` and `best-approx` on every config of
  demos/configs/ and perfbench/configs/;
- `table-vnad` on demos/configs/vnad_table.cfg;
- `witness --n 2`, `--n 64` and `--n 1024` on demos/configs/growing.cfg;
- the three `perfbench/task.py majorant` tasks of the benchmark's `majorant`
  workload, with `--count 4 --seed 1`;
- the demo scripts.

Each run gets a directory OUTDIR/NAME holding its `stdout`, `stderr`, exit
`status` and, under `files/`, every file it wrote.  Nothing in them depends
on the time, the checkout or OUTDIR, so two snapshots of one checkout are
byte-identical under `diff -r`, and two checkouts' snapshots differ only
where their outputs do.  OUTDIR must not exist yet.  Prints one line per
run (name, exit status, wall time); exits 0 once every run has been kept,
whatever the runs' own statuses.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# The benchmark's majorant tasks: perfbench/run.py's `majorant` workload.
MAJORANT_TASKS = (("1.5", "8 16 32 64"), ("3", "8 16 32 64"), ("4", "4 8 16"))


def runs(files: Path, scratch: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run; `files / name` is the run's output directory."""
    cli = [sys.executable, "-m", "zygmund.cli"]
    configs = sorted(ROOT.glob("demos/configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg"))
    out = []
    for command in ("classify", "rate-check", "best-approx"):
        for cfg in configs:
            out.append((f"{command}-{cfg.stem}", cli + [command, "--config", str(cfg)]))
    demo_cfg = ROOT / "demos" / "configs"
    out.append(("table-vnad", cli + ["table-vnad", "--config", str(demo_cfg / "vnad_table.cfg")]))
    for n in ("2", "64", "1024"):
        out.append((f"witness-{n}", cli + ["witness", "--n", n, "--config", str(demo_cfg / "growing.cfg")]))
    out = [(name, argv + ["--out", str(files / name / "files")]) for name, argv in out]
    for q, ns in MAJORANT_TASKS:
        name = f"majorant-q{q}"
        out.append((name, [sys.executable, str(ROOT / "perfbench" / "task.py"), "majorant",
                           str(scratch / f"{name}.json"), "0", "--q", q, "--n", *ns.split(),
                           "--count", "4", "--seed", "1", "--out", str(files / name / "files")]))
    for script in sorted(ROOT.glob("demos/*.py")):
        out.append((f"demo-{script.stem}", [sys.executable, str(script)]))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True)
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv_ in runs(outdir, Path(scratch)):
            run_dir = outdir / name
            run_dir.mkdir()
            start = time.perf_counter()
            child = subprocess.run(argv_, cwd=ROOT, env=env, capture_output=True)
            wall = time.perf_counter() - start
            (run_dir / "stdout").write_bytes(child.stdout)
            (run_dir / "stderr").write_bytes(child.stderr)
            (run_dir / "status").write_text(f"{child.returncode}\n")
            print(f"{name}: status {child.returncode}, {wall:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
