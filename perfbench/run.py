"""Cold-process benchmark of the zygmund certification pipeline.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-reference

Each task of a workload runs in a fresh interpreter (`task.py`), one after
another, as a user runs CLI commands: the calibration cache of
`zygmund.witness` lives for one process, so repeats inside one process
would time a warm cache no user gets.  A pass runs every task of the
workload once; passes repeat until the next one would end after --seconds
(at least one pass), and every task's outputs are checked against
`reference.json` (see `check.py`).

--trace 0 reports the end-to-end metrics, medians over the passes:
  wall_s       launch of the first interpreter to exit of the last
  setup_s      launch to the end of the library import, median over tasks
  peak_rss_mb  highest peak RSS of any task process (child rusage)

--trace 1 alternates traced and untraced passes (at least two traced) and
reports the per-layer metrics of `spans.py` from the traced ones: counts,
which must repeat exactly across traced passes, and median times.  It adds
rates.lower_bound_violations, error_rate and trace.overhead_s (median traced
minus median untraced wall time).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the environment and
every metric with its unit.  A task that fails its check makes the result
incorrect; the exit status is 0 whenever a result is printed, and 2, with
no result, when the library sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEMO = "demos/configs"
BENCH = "perfbench/configs"

# BLAS/OpenMP threads of every task process; at most nproc.
BLAS_THREADS = 1
# numpy asks for transparent huge pages on large arrays, which the kernel
# grants or refuses by the host's memory fragmentation; over interleaved runs
# that doubled the spread of a 2^24-node task, so tasks run on 4 KiB pages.
NUMPY_MADVISE_HUGEPAGE = 0
# A task that runs longer than this is killed and fails.
TASK_TIMEOUT_S = 120.0
# Unit-ball sources per order in the majorant tasks.
UNIT_BALL_SOURCES = 4


@dataclass(frozen=True)
class Task:
    name: str
    mode: str  # "cli" or "majorant", see task.py
    args: tuple[str, ...]


def _cli(name: str, *args: str) -> Task:
    return Task(name, "cli", args)


def _majorant(q: str, *ns: str) -> Task:
    return Task(f"majorant-q{q}", "majorant", ("--q", q, "--n", *ns, "--count", str(UNIT_BALL_SOURCES)))


WORKLOADS = {
    "demo": (
        _cli("classify", "classify", "--config", f"{DEMO}/growing.cfg"),
        _cli("rate-growing", "rate-check", "--config", f"{DEMO}/growing.cfg"),
        _cli("rate-critical", "rate-check", "--config", f"{DEMO}/critical.cfg"),
        _cli("rate-log_growing", "rate-check", "--config", f"{DEMO}/log_growing.cfg"),
        _cli("rate-saturating", "rate-check", "--config", f"{DEMO}/saturating.cfg"),
        _cli("table-vnad", "table-vnad", "--config", f"{DEMO}/vnad_table.cfg"),
        _cli("best-growing", "best-approx", "--config", f"{DEMO}/growing.cfg"),
        _cli("witness-64", "witness", "--config", f"{DEMO}/growing.cfg", "--n", "64"),
    ),
    "wide": (
        _cli("rate-wide_power", "rate-check", "--config", f"{BENCH}/wide_power.cfg"),
        _cli("rate-wide_critical_log", "rate-check", "--config", f"{BENCH}/wide_critical_log.cfg"),
    ),
    "nonquadratic": (
        _cli("rate-q4", "rate-check", "--config", f"{BENCH}/rate_q4.cfg"),
        _cli("rate-q1.5_s2", "rate-check", "--config", f"{BENCH}/rate_q1.5_s2.cfg"),
        _cli("best-q3", "best-approx", "--config", f"{BENCH}/best_q3.cfg"),
        _cli("best-q1.2", "best-approx", "--config", f"{BENCH}/best_q1.2.cfg"),
    ),
    "majorant": (
        _majorant("1.5", "8", "16", "32", "64"),
        _majorant("3", "8", "16", "32", "64"),
        _majorant("4", "4", "8", "16"),
    ),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class TaskRun:
    task: Task
    setup_s: float | None
    rss_mb: float
    stats: dict | None
    problems: list[str]
    lower_bound_violations: int


@dataclass
class Pass:
    wall_s: float
    runs: list[TaskRun]
    traced: bool


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["NUMPY_MADVISE_HUGEPAGE"] = str(NUMPY_MADVISE_HUGEPAGE)
    return env


def launch(task: Task, seed: int, traced: bool, pass_dir: Path, env) -> tuple[float, float, int, float]:
    """Run one task to completion: (launched, exited, exit status, peak RSS in MB)."""
    out = pass_dir / task.name
    argv = [
        sys.executable, str(ROOT / "perfbench" / "task.py"), task.mode,
        str(pass_dir / f"{task.name}.json"), "1" if traced else "0",
        *task.args, "--out", str(out), "--seed", str(seed),
    ]  # fmt: skip
    with open(pass_dir / f"{task.name}.stdout", "wb") as stdout, open(
        pass_dir / f"{task.name}.stderr", "wb"
    ) as stderr:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
        watchdog = threading.Timer(TASK_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    return launched, exited, proc.returncode, usage.ru_maxrss / 1024.0


def run_pass(tasks, seed: int, traced: bool, reference: dict, env) -> Pass:
    pass_dir = WORK / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    timings = [launch(task, seed, traced, pass_dir, env) for task in tasks]
    wall_s = timings[-1][1] - timings[0][0]

    runs = []
    for task, (launched, _, rc, rss_mb) in zip(tasks, timings):
        out = pass_dir / task.name
        stdout = (pass_dir / f"{task.name}.stdout").read_text()
        try:
            report = json.loads((pass_dir / f"{task.name}.json").read_text())
        except (OSError, ValueError):
            report = None
        problems = check.check_task(reference[task.name], rc, stdout, out)
        if report is None:
            problems.append("no task report")
        elif not report["zygmund"].startswith(str(SRC)):
            problems.append(f"imported zygmund from {report['zygmund']}")
        if problems:
            stderr = (pass_dir / f"{task.name}.stderr").read_text().strip().splitlines()
            problems.extend(stderr[-3:])
        runs.append(
            TaskRun(
                task=task,
                setup_s=report["imported"] - launched if report else None,
                rss_mb=rss_mb,
                stats=report["stats"] if report else None,
                problems=problems,
                lower_bound_violations=check.lower_bound_violations(out),
            )
        )
    return Pass(wall_s, runs, traced)


def run_passes(tasks, seed: int, seconds: float, traced_run: bool, reference: dict) -> list[Pass]:
    """Passes until the next would end after `seconds`.

    Untraced runs make at least one pass.  Traced runs alternate traced and
    untraced passes, starting and ending with a traced one, at least three.
    """
    env = child_env()
    start = time.monotonic()
    passes: list[Pass] = []
    while True:
        traced = traced_run and len(passes) % 2 == 0
        passes.append(run_pass(tasks, seed, traced, reference, env))
        minimum = 3 if traced_run else 1
        if len(passes) < minimum:
            continue
        # a traced run continues in pairs, so that it ends on a traced pass
        step = 2 if traced_run else 1
        expected = step * statistics.median(p.wall_s for p in passes)
        if time.monotonic() - start + expected > seconds:
            return passes


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    setups = [r.setup_s for p in passes for r in p.runs if r.setup_s is not None]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        # no setups only when every task failed, which makes the result incorrect
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p.runs) for p in passes),
    }


def per_layer(passes: list[Pass]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced passes, and counts that did not repeat."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    totals = []
    for p in traced:
        total: dict[str, float] = {}
        for run in p.runs:
            for key, value in (run.stats or {}).items():
                if key == "trig.sample.max_nodes":
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0.0) + value
        totals.append(total)

    metrics = {}
    for key in spans.COUNT_METRICS:
        metrics[key] = int(totals[0].get(key, 0))
    for key in spans.TIME_METRICS:
        metrics[key] = statistics.median(t.get(key, 0.0) for t in totals)
    unrepeated = [k for k in spans.COUNT_METRICS if len({t.get(k, 0) for t in totals}) > 1]

    converged, calls = metrics.pop("norms.best_approx.converged"), metrics["norms.best_approx.calls"]
    metrics["norms.best_approx.converged_ratio"] = converged / calls if calls else 0.0
    metrics["rates.lower_bound_violations"] = sum(r.lower_bound_violations for r in traced[0].runs)
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    return metrics, unrepeated


def metric_units() -> dict[str, str]:
    """Unit of every metric this benchmark reports."""
    units = dict(END_TO_END)
    for key in spans.COUNT_METRICS:
        units[key] = "nodes" if key.endswith("nodes") else "count"
    for key in spans.TIME_METRICS:
        units[key] = "s"
    units.pop("norms.best_approx.converged")
    units["norms.best_approx.converged_ratio"] = "ratio"
    units["rates.lower_bound_violations"] = "count"
    units["error_rate"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def environment() -> dict:
    """Machine, toolchain and source identity recorded with every result."""
    probe = (
        "import json, platform, numpy, scipy\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
        "except Exception as exc:\n"
        "    blas = f'unknown ({exc})'\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': blas}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True
    )
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None  # unknown outside a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "zygmund").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        **json.loads(out.stdout),
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": NUMPY_MADVISE_HUGEPAGE,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def preflight(recording: bool) -> None:
    """Exit 2, printing no result, when the library or its configs are absent."""
    needed = [SRC / "zygmund" / "cli.py"] + ([] if recording else [check.REFERENCE])
    needed += [ROOT / arg for tasks in WORKLOADS.values() for t in tasks for arg in t.args if arg.endswith(".cfg")]
    missing = [str(p.relative_to(ROOT)) for p in dict.fromkeys(needed) if not p.exists()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    if BLAS_THREADS > (os.cpu_count() or 1):
        print(f"perfbench: BLAS_THREADS={BLAS_THREADS} exceeds nproc", file=sys.stderr)
        sys.exit(2)


def record_reference() -> None:
    """Write reference.json from one untraced pass of every workload."""
    env = child_env()
    reference = {}
    for tasks in WORKLOADS.values():
        pass_dir = WORK / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        for task in tasks:
            _, _, rc, _ = launch(task, 0, False, pass_dir, env)
            stdout = (pass_dir / f"{task.name}.stdout").read_text()
            reference[task.name] = check.record(rc, stdout, pass_dir / task.name)
    check.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {check.REFERENCE.relative_to(ROOT)} ({len(reference)} tasks)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json and exit")
    args = parser.parse_args()
    # on SIGTERM, unwind through launch(), which kills and reaps the running task
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    preflight(args.record_reference)
    compileall.compile_dir(SRC, quiet=1)  # users run from compiled bytecode
    if args.record_reference:
        record_reference()
        return 0

    env_info = environment()
    reference = check.load_reference()
    self_failures = check.self_check(reference, WORK / "self_check")
    tasks = WORKLOADS[args.workload]
    passes = run_passes(tasks, args.seed, args.seconds, bool(args.trace), reference)

    attempted = sum(len(p.runs) for p in passes)
    failed_runs = [r for p in passes for r in p.runs if r.problems]
    if args.trace:
        metrics, unrepeated = per_layer(passes)
        metrics["error_rate"] = len(failed_runs) / attempted
    else:
        metrics, unrepeated = end_to_end(passes), []
    correct = not failed_runs and not self_failures and not unrepeated

    units = metric_units()
    print("env " + json.dumps(env_info, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}  "
          f"tasks {attempted}  failed {len(failed_runs)}  error_rate {len(failed_runs) / attempted:.4g}")
    print("pass wall_s " + " ".join(f"{p.wall_s:.4f}{'T' if p.traced else ''}" for p in passes))
    for failure in self_failures:
        print(f"SELF-CHECK FAILED: {failure}")
    for key in unrepeated:
        print(f"COUNT NOT REPEATED: {key}")
    for run in failed_runs:
        print(f"FAILED {run.task.name}: " + "; ".join(run.problems))
    for key, value in metrics.items():
        print(f"  {key:<44} {value:>18.6g} {units[key]}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env_info, "pass_wall_s": [p.wall_s for p in passes]}  # fmt: skip
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
