import dataclasses
import math

import numpy as np
import pytest

from zygmund.decay import MethodParams, Power, PowerInvLog, PowerLog, Regime, classify_regime
from zygmund.errors import ConvergenceError, ParameterError, RegimeMismatchError
from zygmund.rates import (
    best_vs_method_experiment,
    critical_integral,
    loglog_slope,
    ratio_experiment,
    theoretical_rate,
    unit_ball_deviations,
    upper_bound_estimate,
)
from zygmund.witness import WitnessConfig, build_witness

GRID = [8, 16, 32, 64, 128, 256]


class TestTheoreticalRate:
    def test_growing_case_arithmetic(self):
        m = MethodParams(s=1.0, q=2.0)
        assert theoretical_rate(Power(1.0), m, 16) == pytest.approx(0.25, rel=1e-14)

    def test_critical_case_is_log_rate(self):
        m = MethodParams(s=1.0, q=2.0)
        psi = Power(1.5)
        for n in (8, 64, 512):
            expected = (1.0 / n) * math.sqrt(math.log(n))
            assert theoretical_rate(psi, m, n) == pytest.approx(expected, rel=1e-12)

    def test_decaying_case(self):
        m = MethodParams(s=2.0, q=3.0)
        psi = Power(5.0)
        assert theoretical_rate(psi, m, 10) == pytest.approx(0.01, rel=1e-14)

    def test_decreasing_in_n(self):
        for psi, s, q in [(Power(1.0), 1.0, 2.0), (Power(1.5), 1.0, 2.0), (Power(2.5), 1.0, 2.0),
                          (PowerLog(1.0, 1.0, 60.0), 1.0, 2.0), (Power(0.9), 0.5, 4.0)]:
            m = MethodParams(s=s, q=q)
            values = [theoretical_rate(psi, m, n) for n in range(4, 200, 7)]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_formulas_meet_at_the_boundary(self):
        # As r increases to s + 1 - 1/q, the growing-regime formula at fixed n
        # approaches n**(-s).
        m = MethodParams(s=1.0, q=2.0)
        n = 64
        for r in (1.49, 1.499, 1.4999):
            value = float(Power(r)(n)) * n**0.5
            assert value == pytest.approx(n**-1.0, rel=5.0 * (1.5 - r) * math.log(n))

    def test_sum_vs_integral_on_the_boundary_family(self):
        # On the pure-power boundary g is constant, so the coefficient sum is
        # the harmonic number against log n: within a factor 2 throughout.
        m = MethodParams(s=1.0, q=2.0)
        psi = Power(1.5)
        for n in (8, 16, 32, 64, 128, 256, 512):
            k = np.arange(1, n, dtype=float)
            sum_form = float(np.sum(1.0 / k)) ** (1.0 / m.q) / n**m.s
            integral_form = critical_integral(psi, m, n) ** (1.0 / m.q) / n**m.s
            assert 0.5 <= sum_form / integral_form <= 2.0

    def test_critical_integral_quadrature_matches_analytic(self):
        m = MethodParams(s=1.0, q=2.0)
        psi = PowerLog(r=1.5, alpha=1.0, c=200.0)
        # Independent check: g**q/t = log(t+c)**2 / t; integrate numerically
        # on a dense log grid.
        n = 128
        ts = np.geomspace(1.0, n, 20001)
        integrand = np.log(ts + 200.0) ** 2 / ts
        reference = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(ts)))
        assert critical_integral(psi, m, n) == pytest.approx(reference, rel=1e-5)


class TestWeylNagyRate:
    """The Weyl-Nagy profiles psi(t) = t**(-r) through the one rate law."""

    @staticmethod
    def rate(r, n, s=1.0, q=2.0):
        return theoretical_rate(Power(r), MethodParams(s=s, q=q), n)

    def test_first_case(self):
        assert self.rate(0.75, 16) == pytest.approx(16.0**-0.25, rel=1e-14)
        assert self.rate(0.75, 16) == pytest.approx(0.5, rel=1e-12)

    def test_boundary_case(self):
        n = 7  # nearest integer to e**2
        assert self.rate(1.5, n) == pytest.approx(math.sqrt(math.log(n)) / n, rel=1e-14)

    def test_third_case(self):
        assert self.rate(3.0, 10) == pytest.approx(0.1, rel=1e-14)

    @pytest.mark.parametrize("r", [0.75, 1.5, 2.5])
    def test_agrees_with_power_rate_formula(self, r):
        # The three closed forms, split at r = s + 1 - 1/q = 1.5 (s = 1, q = 2).
        s, q = 1.0, 2.0
        for n in GRID:
            if r < 1.5:
                closed = n ** -(r - 1.0 + 1.0 / q)
            elif r == 1.5:
                closed = n**-s * math.log(n) ** (1.0 / q)
            else:
                closed = n**-s
            assert self.rate(r, n, s, q) == pytest.approx(closed, rel=1e-9)


class TestUpperBound:
    def test_dominates_random_unit_ball_sources(self):
        m = MethodParams(s=1.0, q=2.0)
        majorant = upper_bound_estimate(Power(1.0), m, 16)
        deviations = unit_ball_deviations(Power(1.0), m, 16, count=50, seed=1234)
        assert all(majorant >= d for d in deviations)

    def test_banded_against_growing_rate(self):
        m = MethodParams(s=1.0, q=2.0)
        ratios = [upper_bound_estimate(Power(1.0), m, n) / n**-0.5 for n in GRID]
        assert max(ratios) / min(ratios) < 2.0

    def test_large_s_leaves_only_the_tail(self):
        m = MethodParams(s=50.0, q=2.0)
        majorant = upper_bound_estimate(Power(2.0), m, 8)
        # Parseval for the infinite tail from 8: sqrt(pi * sum_{k>=8} k^-4) / pi
        tail_sq = float(np.sum(np.arange(8, 100000) ** -4.0))
        expected = math.sqrt(math.pi * tail_sq) / math.pi
        assert majorant == pytest.approx(expected, rel=2e-3)

    def test_matches_untruncated_q2_majorant(self):
        m = MethodParams(s=1.0, q=2.0)
        majorant = upper_bound_estimate(Power(1.5), m, 16)
        # Parseval for the head sum_{k<16} k^-1.5 (k/16) and the tail from 16,
        # summed to 10^6 in place of infinity
        k = np.arange(1, 16, dtype=float)
        head_sq = float(np.sum((k**-1.5 * k / 16) ** 2))
        tail_sq = float(np.sum(np.arange(16, 1000001, dtype=float) ** -3.0))
        expected = (math.sqrt(math.pi * head_sq) + math.sqrt(math.pi * tail_sq)) / math.pi
        assert majorant == pytest.approx(expected, rel=5e-3)

    @pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="the 0.1% tail stop is never met at q = 6 and 8")
    @pytest.mark.parametrize("q", [6.0, 8.0])
    def test_finite_at_large_q(self, q):
        assert math.isfinite(upper_bound_estimate(Power(1.0), MethodParams(s=1.0, q=q), 4))

    def test_warns_outside_integrability(self):
        # r = 0.4 <= 1/q': the kernel is not q-integrable, so after the
        # warning the tail norm never stabilizes.
        m = MethodParams(s=1.0, q=2.0)
        with pytest.warns(UserWarning):
            with pytest.raises(ConvergenceError):
                upper_bound_estimate(Power(0.4), m, 8)


class TestRatioExperiment:
    def test_growing_regime_banded(self):
        report = ratio_experiment(Power(1.0), MethodParams(s=1.0, q=2.0), GRID, band_limit=4.0)
        assert report.verdict
        slope = loglog_slope(report.n_grid, report.deviations)
        assert abs(slope - (-0.5)) < 0.1

    def test_decaying_regime_saturates(self):
        report = ratio_experiment(Power(2.5), MethodParams(s=1.0, q=2.0), GRID, band_limit=4.0)
        assert report.verdict
        # deviation * n**s is exactly deviation/rate here
        scaled = [d * n for d, n in zip(report.deviations, report.n_grid)]
        assert max(scaled) / min(scaled) <= 4.0

    def test_critical_regime_banded(self):
        report = ratio_experiment(Power(1.5), MethodParams(s=1.0, q=2.0), GRID, band_limit=4.0)
        assert report.verdict
        scaled = [d / (math.sqrt(math.log(n)) / n) for d, n in zip(report.deviations, report.n_grid)]
        assert max(scaled) / min(scaled) <= 4.0

    def test_lower_bounds_track_rates(self):
        report = ratio_experiment(Power(1.0), MethodParams(s=1.0, q=2.0), GRID, band_limit=4.0)
        ratios = [lo / u for lo, u in zip(report.lower_bounds, report.upper_rates)]
        assert max(ratios) / min(ratios) <= 4.0

    @pytest.mark.parametrize("s, q", [(1.0, 2.0), (1.0, 4.0), (2.0, 1.5)])
    def test_lower_bounds_are_the_certified_holder_quotients(self, s, q):
        psi, m, ns = Power(1.0), MethodParams(s=s, q=q), [4, 8, 16, 32, 64]
        report = ratio_experiment(psi, m, ns)
        for n, lower, dev in zip(ns, report.lower_bounds, report.deviations):
            assert lower == build_witness(WitnessConfig(psi=psi, method=m, n=n)).lower_bound
            assert lower <= dev

    def test_report_carries_the_regime(self):
        m = MethodParams(s=1.0, q=2.0)
        report = ratio_experiment(Power(1.5), m, [4, 8, 16, 32, 64])
        assert report.regime == classify_regime(Power(1.5), m)

    def test_grid_validation(self):
        m = MethodParams(s=1.0, q=2.0)
        with pytest.raises(ParameterError):
            ratio_experiment(Power(1.0), m, [8, 16, 32])  # too few points
        with pytest.raises(ParameterError):
            ratio_experiment(Power(1.0), m, [2, 8, 16, 32, 64])  # below 4
        with pytest.raises(ParameterError):
            ratio_experiment(Power(1.0), m, [8, 8, 16, 32, 64])  # not increasing

    def test_verdict_follows_the_band_limit(self):
        report = ratio_experiment(Power(1.0), MethodParams(s=1.0, q=2.0), [4, 8, 16, 32, 64])
        assert report.verdict
        assert not dataclasses.replace(report, band_limit=0.99 * report.spread).verdict

    def test_failures_list_each_failed_condition(self):
        report = ratio_experiment(Power(1.0), MethodParams(s=1.0, q=2.0), [4, 8, 16, 32, 64])
        assert report.failures == ()
        above = dataclasses.replace(report, lower_bounds=tuple(2.0 * d for d in report.deviations))
        assert above.failures == (("lower/deviation", 2.0, 1.0 + 1.0e-9),)
        spreads = {"deviation/rate spread": report.spread, "lower/rate spread": report.lower_spread}
        wider = max(spreads, key=spreads.get)
        between = dataclasses.replace(report, band_limit=sum(spreads.values()) / 2.0)
        assert min(spreads.values()) < between.band_limit < spreads[wider]
        assert between.failures == ((wider, spreads[wider], between.band_limit),)
        assert not above.verdict and not between.verdict


class TestBestVsMethod:
    def test_growing_regime_report(self):
        m = MethodParams(s=1.0, q=2.0)
        report = best_vs_method_experiment(Power(1.0), m, [8, 16, 32, 64, 128])
        assert report.verdict
        assert report.regime.regime is Regime.GROWING
        for best, dev in zip(report.lower_bounds, report.deviations):
            assert best <= dev * (1.0 + 1e-9)

    def test_band_independent_of_s(self):
        # The growing-regime rate has no s; the bands stay comparable across s.
        # r = 0.75 keeps r < s + 1 - 1/q for every s tested (s = 0.5 would put
        # r = 1 exactly on the regime boundary).
        spreads = []
        for s in (0.5, 1.0, 2.0):
            report = best_vs_method_experiment(
                Power(0.75), MethodParams(s=s, q=2.0), [8, 16, 32, 64, 128]
            )
            assert report.verdict
            spreads.append(report.spread)
        assert max(spreads) < 5.0

    def test_wrong_regime_rejected(self):
        with pytest.raises(RegimeMismatchError):
            best_vs_method_experiment(Power(2.5), MethodParams(s=1.0, q=2.0), [8, 16, 32, 64, 128])

    def test_integrability_precondition(self):
        # In-regime but failing the kernel integrability test: r <= 1/q'.
        with pytest.raises(ParameterError):
            best_vs_method_experiment(Power(0.4), MethodParams(s=1.0, q=2.0), [8, 16, 32, 64, 128])

    def test_convexity_precondition(self, monkeypatch):
        # Growing and integrable, but 1/psi is convex at nodes 2..7 and
        # concave beyond: rejected before any witness is built.
        def no_witness(config):
            raise AssertionError("build_witness called")

        monkeypatch.setattr("zygmund.rates.build_witness", no_witness)
        psi = PowerLog(1.05, 1.0, 60.0)
        m = MethodParams(s=1.0, q=2.0)
        assert classify_regime(psi, m).regime is Regime.GROWING
        with pytest.raises(ParameterError, match="no definite convexity"):
            best_vs_method_experiment(psi, m, [8, 16, 32, 64, 128])


@pytest.mark.parametrize("experiment", [ratio_experiment, best_vs_method_experiment])
@pytest.mark.parametrize("band_limit", [0.5, 1.0])
def test_band_limit_must_exceed_one_before_any_witness(experiment, band_limit, monkeypatch):
    def no_witness(config):
        raise AssertionError("build_witness called")

    monkeypatch.setattr("zygmund.rates.build_witness", no_witness)
    with pytest.raises(ParameterError, match="band_limit must exceed 1"):
        experiment(Power(1.0), MethodParams(s=1.0, q=3.0), [8, 16, 32, 64, 128], band_limit=band_limit)


class _WitnessReached(Exception):
    pass


@pytest.mark.parametrize("experiment", [ratio_experiment, best_vs_method_experiment])
@pytest.mark.parametrize(
    "q, accepted, rejected, cap", [(2.0, 1 << 14, 1 << 15, 16384), (3.0, 1024, 2048, 1024)]
)
def test_order_cap_follows_the_exponent(experiment, q, accepted, rejected, cap, monkeypatch):
    # q = 2 allows orders up to 2^14, other q up to 1024; the grid is checked
    # before any witness is built.
    def reached(config):
        raise _WitnessReached

    monkeypatch.setattr("zygmund.rates.build_witness", reached)
    method = MethodParams(s=1.0, q=q)
    grid = [accepted // 16, accepted // 8, accepted // 4, accepted // 2]
    with pytest.raises(_WitnessReached):
        experiment(Power(1.0), method, grid + [accepted])
    with pytest.raises(ParameterError, match=rf"within \[4, {cap}\] at q = {q:g}$"):
        experiment(Power(1.0), method, grid + [accepted, rejected])


class TestLogFamilyExperiment:
    def test_powerlog_growing_band(self):
        psi = PowerLog(r=1.0, alpha=1.0, c=60.0)
        m = MethodParams(s=1.0, q=2.0)
        assert classify_regime(psi, m).regime.value == "growing"
        report = ratio_experiment(psi, m, GRID, band_limit=6.0)
        assert report.verdict

    def test_powerinvlog_decaying_band(self):
        psi = PowerInvLog(r=2.5, alpha=1.0, c=1.0)
        m = MethodParams(s=1.0, q=2.0)
        report = ratio_experiment(psi, m, GRID, band_limit=6.0)
        assert report.verdict
