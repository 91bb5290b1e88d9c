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
- the demo scripts;
- the front end's error paths: `classify` on one bad config per kind of
  config-file error (BAD_CONFIGS, each growing.cfg with one edit), and
  the command-line errors `--band-limit 0.5`, `witness --n 1` and a config
  path, relative to the checkout root, that does not exist.

Each run gets a directory OUTDIR/NAME holding its `stdout`, `stderr`, exit
`status` and, under `files/`, every file it wrote; a bad config is written
there too, as `config.cfg`, before its run.  Nothing in them depends
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
# name: (text of demos/configs/growing.cfg to replace, its replacement)
BAD_CONFIGS = {
    "unknown-key": ("method.beta", "method.p"),
    "duplicate-key": ("method.beta = 0.0", "method.q = 3.0"),
    "missing-key": ("method.s = 1.0", ""),
    "not-a-number": ("psi.r = 1.0", "psi.r = one"),
    "empty-list": ("n_grid = 8 16 32 64 128 256", "n_grid ="),
    "bad-list-entry": ("n_grid = 8 16", "n_grid = 8 x6"),
    "unknown-family": ("psi.family = power", "psi.family = Power-Law"),
    "log-family-without-alpha": ("psi.family = power", "psi.family = Power-Log\npsi.c = 60"),
    "q-1": ("method.q = 2.0", "method.q = 1"),
    "band-limit-0.5": ("band_limit = 4.0", "band_limit = 0.5"),
}


def runs(files: Path, scratch: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run; `files / name` is the run's output directory."""
    cli = [sys.executable, "-m", "zygmund.cli"]
    configs = sorted(ROOT.glob("demos/configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg"))
    out = []
    for command in ("classify", "rate-check", "best-approx"):
        for cfg in configs:
            out.append((f"{command}-{cfg.stem}", cli + [command, "--config", str(cfg)]))
    demo_cfg = ROOT / "demos" / "configs"
    growing = str(demo_cfg / "growing.cfg")
    out.append(("table-vnad", cli + ["table-vnad", "--config", str(demo_cfg / "vnad_table.cfg")]))
    for n in ("2", "64", "1024"):
        out.append((f"witness-{n}", cli + ["witness", "--n", n, "--config", growing]))
    for name in BAD_CONFIGS:
        out.append((f"error-{name}", cli + ["classify", "--config", str(files / f"error-{name}" / "config.cfg")]))
    out.append(("error-band-limit-flag", cli + ["rate-check", "--band-limit", "0.5", "--config", growing]))
    out.append(("error-witness-n-1", cli + ["witness", "--n", "1", "--config", growing]))
    out.append(("error-missing-config", cli + ["classify", "--config", "demos/configs/missing.cfg"]))
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
    growing = (ROOT / "demos" / "configs" / "growing.cfg").read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv_ in runs(outdir, Path(scratch)):
            run_dir = outdir / name
            run_dir.mkdir()
            edit = BAD_CONFIGS.get(name.removeprefix("error-"))
            if edit is not None:
                (run_dir / "config.cfg").write_text(growing.replace(*edit), encoding="utf-8")
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
