"""The three-case rate table for pure-power profiles.

For psi(t) = t**(-r) the rate law splits into three closed forms depending
on where r sits relative to s + 1 - 1/q: the growing, critical and decaying
regimes of `theoretical_rate`.  This script reproduces the table
empirically: measured deviations, their log-log slopes, and the log-log
slopes of the closed-form rates on the same grid.
"""

from zygmund import MethodParams, Power, Regime, loglog_slope, ratio_experiment, theoretical_rate

GRID = [8, 16, 32, 64, 128, 256]
CASE = {Regime.GROWING: 1, Regime.CRITICAL: 2, Regime.DECAYING: 3}
s, q = 1.0, 2.0
method = MethodParams(s=s, q=q)
boundary = s + 1.0 - 1.0 / q
print(f"s={s}, q={q}: case boundary at r = s + 1 - 1/q = {boundary}\n")

print(f"{'r':>5}  {'case':>6}  {'rate(16)':>10}  {'band':>7}  {'slope':>8}  {'theory':>8}")
for r in (0.75, 1.5, 2.5):
    report = ratio_experiment(Power(r), method, GRID, band_limit=4.0)
    case = CASE[report.regime.regime]
    slope_theory = loglog_slope(report.n_grid, report.upper_rates)
    slope = loglog_slope(report.n_grid, report.deviations)
    rate16 = theoretical_rate(Power(r), method, 16)
    print(
        f"{r:>5}  {f'case{case}':>6}  {rate16:>10.6f}  "
        f"{report.spread:>7.3f}  {slope:>+8.4f}  {slope_theory:>+8.4f}"
    )

print("\ntheory is the log-log slope of the rate law on the same grid: case1 is")
print("-(r - 1 + 1/q); case2 rises above -s through the factor (log n)**(1/q); case3")
print("saturates at -s no matter how fast psi decays.")
