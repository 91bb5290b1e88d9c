"""Run one benchmark task in this (fresh) interpreter.

    python3 perfbench/task.py cli REPORT TRACE <zygmund argv...>
    python3 perfbench/task.py majorant REPORT TRACE --q Q --n N... \\
        --seed S --count C --out DIR

`cli` runs `zygmund.cli.main` exactly as the `zygmund` command would.
`majorant` calls the library directly: for each order n it writes the two-norm
majorant `rates.upper_bound_estimate` to majorant.csv and the deviations of
seeded random unit-ball sources, `rates.unit_ball_deviations`, to
unit_ball.csv.  No CLI command reaches either function.

REPORT is a JSON file written on exit.  It holds the monotonic time at which
the library finished importing (the launching process holds the launch
time), the imported package path and, when TRACE is 1, the per-layer
statistics of `spans.py`.  The exit status is the task's own.
"""

import sys
import time

if sys.argv[1] == "cli":
    import zygmund.cli
else:
    import zygmund.rates
IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import zygmund  # noqa: E402
from zygmund import MethodParams, Power, rates  # noqa: E402


def run_majorant(argv) -> int:
    parser = argparse.ArgumentParser(prog="task.py majorant")
    parser.add_argument("--q", type=float, required=True)
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    psi = Power(1.0)
    method = MethodParams(s=1.0, q=args.q)
    majorants = ["n,q,majorant"]
    deviations = ["n,q,source,deviation"]
    for n in args.n:
        bound = rates.upper_bound_estimate(psi, method, n)
        majorants.append(f"{n},{args.q!r},{bound!r}")
        for i, dev in enumerate(rates.unit_ball_deviations(psi, method, n, args.count, args.seed)):
            deviations.append(f"{n},{args.q!r},{i},{dev!r}")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "majorant.csv").write_text("\n".join(majorants) + "\n")
    (args.out / "unit_ball.csv").write_text("\n".join(deviations) + "\n")
    return 0


def main() -> int:
    mode, report_path, traced, *argv = sys.argv[1:]
    tracer = None
    if traced == "1":
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    report = {"imported": IMPORTED, "zygmund": zygmund.__file__, "stats": None}
    try:
        if mode == "majorant":
            return run_majorant(argv)
        if tracer is None:
            return zygmund.cli.main(argv)
        return tracer.time_command(argv[0], zygmund.cli.main, argv)
    finally:
        if tracer is not None:
            report["stats"] = dict(tracer.stats)
        Path(report_path).write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
