"""Command-line front end for the experiment harness.

Subcommands: classify, rate-check, witness, table-vnad, best-approx, each
declared once in `_COMMANDS` with its help, its runner (which takes the
config and the parsed arguments) and whether it reads a band limit.  Every
command reads a flat key-value config (see `zygmund.config`), writes CSV
files into the output directory, and exits 0 only when all verdicts pass and
no validation error occurred.  Outputs are deterministic: identical configs
give byte-identical files at a fixed BLAS thread count (another count can
move the last digits of a few values).  No command draws random numbers, so a config has
no `seed` key; `--seed` is accepted and ignored, because perfbench/run.py
passes it to every command.

`main` registers `gc.freeze` with `atexit`, once per process, so the
interpreter's garbage collections at shutdown skip the heap that importing
numpy and the library leaves behind (about 22k objects, which the OS
reclaims anyway): on a 2-vCPU Xeon the time from `main` returning to the
process exiting fell from about 21 to 5 ms.  CPython still flushes stdout
and stderr after the atexit handlers, and every file a command writes is
closed before `main` returns.  Importing a module registers nothing.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, checked_band_limit, parse_config
from .decay import (
    Power,
    Regime,
    check_almost_decreasing,
    check_doubling,
    classify_regime,
    reciprocal_convexity,
)
from .errors import ConfigError, ZygmundError
from .rates import RateReport, best_vs_method_experiment, loglog_slope, ratio_experiment
from .trig import TrigPoly
from .witness import WitnessConfig, build_witness

__all__ = ["main"]


def trig_poly_csv(p: TrigPoly) -> str:
    """Serialize a polynomial: a header row carrying a0, then rows k,a_k,b_k."""
    columns = {"k": range(1, p.degree + 1), "a_k": p.a.tolist(), "b_k": p.b.tolist()}
    return f"a0,{p.a0}\n" + _csv(columns)


def _csv(columns: dict) -> str:
    """A header row of the column names, then one row per entry, each value
    by str: the same text as repr for Python floats and ints, and
    pre-formatted string cells pass through as they are."""
    rows = [",".join(columns)] + [",".join(map(str, row)) for row in zip(*columns.values())]
    return "\n".join(rows) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_plot_data(out_dir: Path, name: str, ns, values) -> None:
    """Two-column (n, value) whitespace-separated file for plotting tools."""
    lines = [f"{n} {v!r}" for n, v in zip(ns, values)]
    _write(out_dir / f"{name}.dat", "\n".join(lines) + "\n")


def _grid_label(ns) -> str:
    return f"n in [{ns[0]}..{ns[-1]}]"


def _not_banded(report: RateReport, lower: str) -> str:
    """The failure line: each failed verdict condition with its value and its
    limit, the lower values named `lower`."""
    failed = [f"{name.replace('lower', lower)} {v:.4g} exceeds limit {lim:g}" for name, v, lim in report.failures]
    return f"NOT BANDED: {'; '.join(failed)} over {_grid_label(report.n_grid)}"


def cmd_classify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    method = cfg.method
    regime = classify_regime(cfg.psi, method)
    theta = check_almost_decreasing(cfg.psi, method.q_prime)
    convexity = reciprocal_convexity(cfg.psi)

    eps = f" (epsilon={regime.epsilon!r})" if regime.epsilon is not None else ""
    cert = f" alpha={theta.alpha!r} K={theta.bound:.6g}" if theta.member else ""
    print(f"psi        : {cfg.psi_family} {cfg.psi}")
    print(f"method     : s={method.s!r} q={method.q!r} beta={method.beta!r} q'={method.q_prime!r}")
    print(f"regime     : {regime.regime.value}{eps}")
    print(f"theta(q'={method.q_prime:g}) : {str(theta.member).lower()}{cert}")
    print(f"doubling   : K={check_doubling(cfg.psi):.6g}")
    print(f"1/psi      : {convexity.value}")
    return 0


def cmd_rate_check(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    ns = cfg.require_n_grid()
    report = ratio_experiment(cfg.psi, cfg.method, ns, band_limit=cfg.band_limit)
    dev, low, rate = report.deviations, report.lower_bounds, report.upper_rates
    ratio = [d / u for d, u in zip(dev, rate)]
    columns = {"n": report.n_grid, "deviation": dev, "lower_bound": low, "upper_rate": rate, "ratio": ratio}
    _write(cfg.output_dir / "rate_report.csv", _csv(columns))
    _write_plot_data(cfg.output_dir, "deviation", report.n_grid, report.deviations)
    _write_plot_data(cfg.output_dir, "lower_bound", report.n_grid, report.lower_bounds)
    _write_plot_data(cfg.output_dir, "upper_rate", report.n_grid, report.upper_rates)
    regime = report.regime.regime.value
    if report.verdict:
        print(f"BANDED within {report.spread:.4g} over {_grid_label(ns)} (regime={regime}, limit={cfg.band_limit:g})")
        return 0
    print(f"{_not_banded(report, 'lower')} (regime={regime})")
    return 1


def cmd_witness(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    n = args.n
    if n < 2:
        raise ConfigError("n", "the witness pairing requires n >= 2")
    result = build_witness(WitnessConfig(psi=cfg.psi, method=cfg.method, n=n))

    names = ("n", "alpha0", "I_closed", "I_quadrature", "lower_bound", "deviation")
    row = (n, result.alpha0, result.pairing, result.pairing_quadrature, result.lower_bound, result.deviation)
    text = _csv({name: [value] for name, value in zip(names, row)})
    _write(cfg.output_dir / "witness.csv", text)
    _write(cfg.output_dir / "witness_phi.csv", trig_poly_csv(result.phi))
    _write(cfg.output_dir / "witness_f.csv", trig_poly_csv(result.f))
    _write(cfg.output_dir / "witness_dual.csv", trig_poly_csv(result.dual))
    print(text, end="")
    return 0


# The Weyl-Nagy cases of psi(t) = t**(-r) are the regimes of Power(r).
_VNAD_CASE = {Regime.GROWING: 1, Regime.CRITICAL: 2, Regime.DECAYING: 3}


def cmd_table_vnad(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    ns = cfg.require_n_grid()
    r_values = cfg.require_r_list()
    method = cfg.method

    rows = []
    all_ok = True
    for r in r_values:
        if not (r > 1.0 - 1.0 / method.q):
            rows.append((r, "rejected", "", "", "", "requires r>1-1/q"))
            all_ok = False
            continue
        report = ratio_experiment(Power(r), method, ns, band_limit=cfg.band_limit)
        case = _VNAD_CASE[report.regime.regime]
        slope_theory = loglog_slope(report.n_grid, report.upper_rates)
        slope = loglog_slope(report.n_grid, report.deviations)
        ok = report.verdict
        if case == 1:
            ok = ok and abs(slope - slope_theory) < 0.1
        all_ok = all_ok and ok
        rows.append((r, f"case{case}", f"{report.spread:.4g}", f"{slope:.4f}", f"{slope_theory:.4f}", "ok" if ok else "failed"))

    print(f"{'r':>6}  {'case':>8}  {'band':>8}  {'slope':>8}  {'theory':>8}  verdict")
    for r, case, spread, slope, theory, verdict in rows:
        print(f"{r:>6g}  {case:>8}  {spread:>8}  {slope:>8}  {theory:>8}  {verdict}")
    names = ("r", "case", "band", "slope", "slope_theory", "verdict")
    _write(cfg.output_dir / "vnad_table.csv", _csv(dict(zip(names, zip(*rows)))))
    return 0 if all_ok else 1


def cmd_best_approx(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    ns = cfg.require_n_grid()
    report = best_vs_method_experiment(cfg.psi, cfg.method, ns, band_limit=cfg.band_limit)
    best, dev, rate = report.lower_bounds, report.deviations, report.upper_rates
    columns = {"n": report.n_grid, "best_value": best, "zygmund_deviation": dev, "rate": rate}
    columns["best_ratio"] = [b / u for b, u in zip(best, rate)]
    columns["zygmund_ratio"] = [d / u for d, u in zip(dev, rate)]
    _write(cfg.output_dir / "best_vs_method.csv", _csv(columns))
    _write_plot_data(cfg.output_dir, "best_value", report.n_grid, report.lower_bounds)
    _write_plot_data(cfg.output_dir, "zygmund_deviation", report.n_grid, report.deviations)
    if report.verdict:
        print(f"BANDED within {report.spread:.4g} over {_grid_label(ns)}; best approximation dominated throughout")
        return 0
    print(_not_banded(report, "best"))
    return 1


# name: (help, runner, whether the command reads a band limit)
_COMMANDS = {
    "classify": ("print regime and structural-class verdicts", cmd_classify, False),
    "rate-check": ("run the bounded-ratio experiment, emit rate_report.csv", cmd_rate_check, True),
    "witness": ("build the extremal witness at one order, emit CSV dumps", cmd_witness, False),
    "table-vnad": ("three-case rate table over a list of decay exponents", cmd_table_vnad, True),
    "best-approx": ("compare best approximation with the Zygmund deviation", cmd_best_approx, True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zygmund",
        description="Summation-method rate experiments on periodic convolution classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, reads_band) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=run)
        sp.add_argument("--config", required=True, help="path to the experiment config file")
        sp.add_argument("--out", default=None, help="output directory (overrides output_dir)")
        sp.add_argument("--seed", type=int, help="ignored; perfbench/run.py passes it to every command")
        if reads_band:
            sp.add_argument("--band-limit", type=float, help="ratio band limit (overrides band_limit)")
        if run is cmd_witness:
            sp.add_argument("--n", type=int, required=True, help="polynomial order of the witness")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    if args.out is not None:
        updates["output_dir"] = Path(args.out)
    if getattr(args, "band_limit", None) is not None:
        updates["band_limit"] = checked_band_limit(args.band_limit)
    return replace(cfg, **updates) if updates else cfg


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Register gc.freeze with atexit; the cache makes it once per process."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_apply_overrides(parse_config(args.config), args), args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZygmundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
