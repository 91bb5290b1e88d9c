"""Bounded-ratio experiments across the three rate regimes.

An order equality between the measured deviation and a closed-form rate
cannot be verified literally at desk scale (the constants are unknown), but
its falsifiable content can: the ratio deviation/rate must stay inside a
fixed band across a geometric grid of orders.  This script runs the
experiment in all three regimes, plus a log-perturbed profile, and prints
the per-order tables.
"""

from zygmund import (
    MethodParams,
    Power,
    PowerLog,
    loglog_slope,
    ratio_experiment,
    upper_bound_estimate,
)

GRID = [8, 16, 32, 64, 128, 256]
method = MethodParams(s=1.0, q=2.0)

cases = [
    ("power r=1.0 (growing)", Power(1.0), 4.0),
    ("power r=1.5 (critical)", Power(1.5), 4.0),
    ("power r=2.5 (decaying)", Power(2.5), 4.0),
    ("power_log r=1 (growing)", PowerLog(r=1.0, alpha=1.0, c=60.0), 6.0),
]

for label, psi, band_limit in cases:
    report = ratio_experiment(psi, method, GRID, band_limit=band_limit)
    slope = loglog_slope(report.n_grid, report.deviations)
    print(f"{label}: regime={report.regime.regime.value}")
    print(f"  {'n':>5}  {'deviation':>12}  {'lower':>12}  {'rate':>12}  {'dev/rate':>9}")
    for n, dev, lo, rate in zip(report.n_grid, report.deviations, report.lower_bounds, report.upper_rates):
        print(f"  {n:>5}  {dev:>12.6f}  {lo:>12.6f}  {rate:>12.6f}  {dev / rate:>9.4f}")
    print(f"  spread {report.spread:.3f} vs limit {band_limit}  ->  "
          f"{'BANDED' if report.verdict else 'NOT BANDED'};  log-log slope {slope:+.3f}\n")

print("the two-norm majorant brackets the class deviation from above and stays")
print("banded against the rate in the growing regime:")
for n in (8, 32, 128):
    majorant = upper_bound_estimate(Power(1.0), method, n)
    print(f"  n={n:>4}: majorant={majorant:.6f}, majorant/rate={majorant / n**-0.5:.4f}")
