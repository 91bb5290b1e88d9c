"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The checks are property-based with quantitative bands; tolerances are pinned
here and nowhere else.
"""

import math

import numpy as np
import pytest

from zygmund.decay import MethodParams, Power, PowerLog, Regime, classify_regime
from zygmund.norms import NormRequest, best_approx, l1_norm, l2_norm_coeffs, lq_norm
from zygmund.rates import (
    best_vs_method_experiment,
    loglog_slope,
    ratio_experiment,
    theoretical_rate,
)
from zygmund.trig import (
    TrigPoly,
    convolve,
    deviation,
    fejer_sum,
    max_coeff_diff,
    zygmund_sum,
)
from zygmund.witness import WitnessConfig, build_witness

GRID = (8, 16, 32, 64, 128, 256)
TWO_PI = 2.0 * math.pi


def report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def random_zero_mean(rng, degree):
    return TrigPoly(0.0, rng.standard_normal(degree), rng.standard_normal(degree))


@pytest.fixture(scope="module")
def regime_sweeps():
    """Witness deviations, lower bounds, and rates over the three power regimes."""
    data = {}
    for r in (1.0, 1.5, 2.5):
        for beta in (0.0, 1.0):
            psi = Power(r)
            method = MethodParams(s=1.0, q=2.0, beta=beta)
            rows = []
            for n in GRID:
                cfg = WitnessConfig(psi=psi, method=method, n=n)
                res = build_witness(cfg)
                rows.append(
                    {
                        "n": n,
                        "deviation": res.deviation,
                        "holder_lower": res.lower_bound,
                        "rate": theoretical_rate(psi, method, n),
                    }
                )
            data[(r, beta)] = rows
    return data


def test_criterion_01_parseval_agreement():
    rng = np.random.default_rng(101)
    req = NormRequest(q=2.0)
    worst = 0.0
    for _ in range(100):
        degree = int(rng.integers(1, 65))
        p = TrigPoly(rng.standard_normal(), rng.standard_normal(degree), rng.standard_normal(degree))
        quadrature = lq_norm(p, req)
        coeffs = l2_norm_coeffs(p)
        worst = max(worst, abs(quadrature - coeffs) / coeffs)
    report(1, f"Parseval quadrature vs coefficients (worst rel {worst:.2e})", worst < 1e-9)


def test_criterion_02_summation_identity():
    rng = np.random.default_rng(102)
    exact = True
    for _ in range(50):
        f = TrigPoly(rng.standard_normal(), rng.standard_normal(9), rng.standard_normal(9))
        n = int(rng.integers(1, 12))
        exact = exact and max_coeff_diff(fejer_sum(f, n), zygmund_sum(f, n, 1.0)) == 0.0
    table = zygmund_sum(TrigPoly(0.0, np.ones(3), np.zeros(3)), 4, 2.0)
    expected = np.array([0.9375, 0.75, 0.4375])
    table_ok = bool(np.max(np.abs(table.a - expected)) <= 1e-15)
    report(2, "Fejér is the s=1 Zygmund mean; multiplier table at n=4, s=2", exact and table_ok)


def test_criterion_03_deviation_representation():
    rng = np.random.default_rng(103)
    t = TWO_PI * np.arange(512) / 512
    worst = 0.0
    sources = []
    for _ in range(20):
        phi = random_zero_mean(rng, 24)
        sources.append((1.0 / (l1_norm(phi) * (1.0 + 1e-9))) * phi)
    for n in (8, 16):
        for s in (0.5, 1.0, 2.0):
            for beta in (0.0, 0.3, 1.0):
                for phi in sources:
                    f = convolve(Power(1.0), beta, phi)
                    dev = deviation(f, n, s)
                    direct = f - zygmund_sum(f, n, s)
                    worst = max(worst, float(np.max(np.abs(dev(t) - direct(t)))))
    report(3, f"coefficient deviation equals direct f - Z(f) (worst {worst:.2e})", worst < 1e-11)


def test_criterion_04_witness_expansion_consistency():
    worst = 0.0
    for n in (2, 4, 8, 16, 32):
        for beta in (0.0, 0.3, 1.0):
            cfg = WitnessConfig(psi=Power(1.0), method=MethodParams(s=1.0, q=2.0, beta=beta), n=n)
            res = build_witness(cfg)
            worst = max(worst, max_coeff_diff(res.f, convolve(cfg.psi, beta, res.phi)))
    report(4, f"witness expansion vs convolution (worst {worst:.2e})", worst < 1e-10)


def test_criterion_05_pairing_orthogonality():
    ok = True
    worst_rel = 0.0
    worst_beta = 0.0
    for n in (4, 16, 64):
        per_beta = []
        for beta in (0.0, 0.5, 1.0):
            cfg = WitnessConfig(psi=Power(1.0), method=MethodParams(s=1.0, q=2.0, beta=beta), n=n)
            res = build_witness(cfg)
            worst_rel = max(worst_rel, abs(res.pairing - res.pairing_quadrature) / max(1.0, abs(res.pairing)))
            per_beta.append(res.pairing_quadrature)
        worst_beta = max(worst_beta, max(per_beta) - min(per_beta))
    ok = worst_rel < 1e-8 and worst_beta < 1e-10
    report(5, f"pairing closed vs quadrature ({worst_rel:.2e}), beta-invariance ({worst_beta:.2e})", ok)


def test_criterion_06_holder_chain(regime_sweeps):
    violations = 0
    checked = 0
    for rows in regime_sweeps.values():
        for row in rows:
            checked += 1
            if row["holder_lower"] > row["deviation"] + 1e-9:
                violations += 1
    for q in (1.5, 3.0):
        for n in (8, 32, 128):
            cfg = WitnessConfig(psi=Power(1.0), method=MethodParams(s=1.0, q=q), n=n)
            res = build_witness(cfg)
            checked += 1
            if res.lower_bound > res.deviation + 1e-9:
                violations += 1
    report(6, f"Hölder quotient below deviation ({checked} configs, {violations} violations)", violations == 0)


def test_criterion_07_three_regime_bands(regime_sweeps):
    ok = True
    details = []
    for (r, beta), rows in regime_sweeps.items():
        ratios = [row["deviation"] / row["rate"] for row in rows]
        spread = max(ratios) / min(ratios)
        details.append(f"r={r} beta={beta}: {spread:.2f}")
        ok = ok and spread <= 4.0
        if r == 1.0:
            slope = loglog_slope([row["n"] for row in rows], [row["deviation"] for row in rows])
            ok = ok and abs(slope - (-0.5)) < 0.1
    report(7, "three-regime deviation bands (spreads " + ", ".join(details) + ")", ok)


def test_criterion_08_lower_vs_upper_sharpness(regime_sweeps):
    ok = True
    details = []
    for (r, beta), rows in regime_sweeps.items():
        ratios = [row["holder_lower"] / row["rate"] for row in rows]
        spread = max(ratios) / min(ratios)
        details.append(f"r={r} beta={beta}: {spread:.2f}")
        ok = ok and spread <= 6.0
    report(8, "witness lower bound tracks the rate (spreads " + ", ".join(details) + ")", ok)


def test_criterion_09_best_approximation():
    rng = np.random.default_rng(109)
    worst_l2 = 0.0
    for _ in range(20):
        f = TrigPoly(rng.standard_normal(), rng.standard_normal(12), rng.standard_normal(12))
        n = int(rng.integers(2, 10))
        value = best_approx(f, n, NormRequest(q=2.0)).value
        tail = math.sqrt(math.pi * float(np.sum(f.a[n - 1 :] ** 2 + f.b[n - 1 :] ** 2)))
        worst_l2 = max(worst_l2, abs(value - tail))
    ok = worst_l2 < 1e-8
    spreads = []
    for q in (1.5, 3.0):
        reportq = best_vs_method_experiment(Power(1.0), MethodParams(s=1.0, q=q), GRID, band_limit=5.0)
        ok = ok and reportq.verdict
        spreads.append(f"q={q}: {reportq.spread:.2f}")
    report(9, f"best approximation: L2 truncation ({worst_l2:.2e}); banded vs rate ({', '.join(spreads)})", ok)


def test_criterion_10_log_perturbed_family():
    psi = PowerLog(r=1.0, alpha=1.0, c=60.0)  # c > e**4 - 1 per the membership constraint
    method = MethodParams(s=1.0, q=2.0)
    regime = classify_regime(psi, method)
    rep = ratio_experiment(psi, method, GRID, band_limit=6.0)
    ok = regime.regime is Regime.GROWING and rep.verdict
    report(10, f"log-perturbed profile classified growing, banded (spread {rep.spread:.2f})", ok)
