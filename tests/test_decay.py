import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zygmund.decay import (
    Convexity,
    MethodParams,
    Power,
    PowerInvLog,
    PowerLog,
    PowerLogLog,
    Regime,
    check_almost_decreasing,
    check_doubling,
    classify_regime,
    growth_function,
    reciprocal_convexity,
)
from zygmund.errors import DomainError, ParameterError


class TestEval:
    def test_power_values(self):
        assert Power(1.0)(2.0) == 0.5
        assert Power(2.0)(1.0) == 1.0

    def test_power_inv_log_at_e_minus_one(self):
        # ln(t + 1) = 1 at t = e - 1; cross-checked against the raw formula.
        psi = PowerInvLog(r=1.0, alpha=1.0, c=1.0)
        t = math.e - 1.0
        raw = 1.0 / (t**1.0 * math.log(t + 1.0) ** 1.0)
        assert psi(t) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
        assert psi(t) == pytest.approx(raw, rel=1e-14)

    def test_domain_error_below_one(self):
        with pytest.raises(DomainError):
            Power(1.0)(0.5)
        with pytest.raises(DomainError):
            Power(1.0)(np.array([1.0, 0.99]))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            Power(0.0)
        with pytest.raises(ParameterError):
            PowerLog(r=1.0, alpha=1.0, c=0.0)
        with pytest.raises(ParameterError):
            PowerInvLog(r=1.0, alpha=-1.0, c=1.0)
        with pytest.raises(ParameterError):
            PowerLogLog(r=1.0, alpha=1.0, c=1.0)  # needs c > e - 1

    def test_powerlog_must_be_nonincreasing(self):
        # Tiny shift makes the log factor dominate near t = 1.
        with pytest.raises(ParameterError):
            PowerLog(r=1.0, alpha=1.0, c=0.01)

    def test_vectorized_eval_matches_scalar(self):
        psi = PowerLog(r=1.0, alpha=1.0, c=60.0)
        ts = np.array([1.0, 2.5, 10.0])
        vec = psi(ts)
        assert vec == pytest.approx([psi(float(t)) for t in ts], rel=1e-15)

    @pytest.mark.parametrize(
        "psi",
        [
            Power(1.0),
            Power(2.5),
            PowerLog(r=1.0, alpha=1.0, c=60.0),
            PowerInvLog(r=1.0, alpha=1.0, c=1.0),
            PowerLogLog(r=1.0, alpha=1.0, c=60.0),
        ],
        ids=["power1", "power2.5", "powerlog", "powerinvlog", "powerloglog"],
    )
    def test_positive_and_nonincreasing_on_geometric_grid(self, psi):
        grid = np.geomspace(1.0, 1.0e6, 400)
        v = psi(grid)
        assert np.all(v > 0.0)
        assert np.all(psi(grid * 1.01) <= v * (1.0 + 1.0e-12))

    def test_log_value_consistency(self):
        for psi in [Power(1.5), PowerLog(1.0, 1.0, 60.0), PowerInvLog(2.0, 0.5, 3.0)]:
            grid = np.geomspace(1.0, 1.0e4, 50)
            assert psi.log_value(grid) == pytest.approx(np.log(psi(grid)), abs=1e-12)


class TestGrowthFunction:
    def test_exponent_cancellation(self):
        m = MethodParams(s=1.0, q=2.0)
        assert growth_function(Power(1.5), m, 4.0) == pytest.approx(1.0, rel=1e-14)
        assert growth_function(Power(1.0), m, 4.0) == pytest.approx(2.0, rel=1e-14)
        assert growth_function(Power(2.5), m, 2.0) == pytest.approx(0.5, rel=1e-14)

    @given(
        r=st.floats(0.3, 4.0),
        s=st.floats(0.2, 3.0),
        q=st.floats(1.1, 8.0),
        t=st.floats(1.0, 1.0e5),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_componentwise_product(self, r, s, q, t):
        psi = Power(r)
        m = MethodParams(s=s, q=q)
        expected = psi(t) * t ** (s + 1.0 / m.q_prime)
        assert growth_function(psi, m, t) == pytest.approx(expected, rel=1e-12)


class TestMethodParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MethodParams(s=0.0, q=2.0)
        with pytest.raises(ParameterError):
            MethodParams(s=1.0, q=1.0)
        with pytest.raises(ParameterError):
            MethodParams(s=1.0, q=math.inf)

    @given(q=st.floats(1.0 + 1e-6, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_identity(self, q):
        m = MethodParams(s=1.0, q=q)
        assert abs(1.0 / m.q + 1.0 / m.q_prime - 1.0) < 1e-12


class TestClassify:
    def test_three_power_cases(self):
        m = MethodParams(s=1.0, q=2.0)
        assert classify_regime(Power(1.0), m).regime is Regime.GROWING
        assert classify_regime(Power(1.5), m).regime is Regime.CRITICAL
        assert classify_regime(Power(2.5), m).regime is Regime.DECAYING

    def test_epsilon_certificate_positive(self):
        m = MethodParams(s=1.0, q=2.0)
        res = classify_regime(Power(1.0), m)
        assert res.epsilon is not None and res.epsilon > 0.0
        res = classify_regime(Power(2.5), m)
        assert res.epsilon is not None and res.epsilon > 0.0

    @pytest.mark.parametrize("r", [0.5, 0.9, 1.3, 1.7, 2.2, 3.0])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
    def test_exhaustive_power_grid(self, r, s, q):
        m = MethodParams(s=s, q=q)
        boundary = s + 1.0 - 1.0 / q
        got = classify_regime(Power(r), m).regime
        if abs(r - boundary) < 1e-12:
            assert got is Regime.CRITICAL
        elif r < boundary:
            assert got is Regime.GROWING
        else:
            assert got is Regime.DECAYING

    def test_boundary_exact(self):
        # r = s + 1 - 1/q built from dyadic parts is exactly representable.
        m = MethodParams(s=1.0, q=2.0)
        assert classify_regime(Power(1.5), m).regime is Regime.CRITICAL

    def test_log_factor_does_not_flip_verdict(self):
        m = MethodParams(s=1.0, q=2.0)
        assert classify_regime(PowerLog(1.0, 1.0, 60.0), m).regime is Regime.GROWING
        assert classify_regime(PowerInvLog(2.5, 1.0, 1.0), m).regime is Regime.DECAYING
        assert classify_regime(PowerLog(1.5, 1.0, 200.0), m).regime is Regime.CRITICAL

class TestAlmostDecreasing:
    def test_power_membership_examples(self):
        res = check_almost_decreasing(Power(1.0), 2.0)
        assert res.member is True
        assert 0.5 < res.alpha <= 1.0
        assert res.bound == pytest.approx(1.0, abs=1e-9)
        assert check_almost_decreasing(Power(0.4), 2.0).member is False

    def test_power_inv_log_member(self):
        assert check_almost_decreasing(PowerInvLog(1.0, 1.0, 1.0), 2.0).member is True

    def test_power_log_needs_large_shift(self):
        # c must exceed e**(2*alpha/(r - 1/rho)) - 1 = e**4 - 1 here.
        assert check_almost_decreasing(PowerLog(1.0, 1.0, 60.0), 2.0).member is True
        assert check_almost_decreasing(PowerLog(1.0, 1.0, 50.0), 2.0).member is False

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.50000001, 0.8, 1.5, 3.0])
    def test_power_iff_r_exceeds_reciprocal_rho(self, r):
        res = check_almost_decreasing(Power(r), 2.0)
        assert res.member is (r > 0.5)

    def test_rho_validation(self):
        with pytest.raises(ParameterError):
            check_almost_decreasing(Power(1.0), 0.5)

class TestDoubling:
    def test_power_certificates(self):
        assert check_doubling(Power(1.0)) == pytest.approx(2.0, abs=1e-10)
        assert check_doubling(Power(2.0)) == pytest.approx(4.0, abs=1e-10)

    def test_all_analytic_families_bounded(self):
        for psi in [
            PowerLog(1.0, 1.0, 60.0),
            PowerInvLog(1.0, 1.0, 1.0),
            PowerLogLog(1.0, 1.0, 60.0),
        ]:
            assert 1.0 < check_doubling(psi) < math.inf


class TestReciprocalConvexity:
    def test_affine_reports_convex_down(self):
        assert reciprocal_convexity(Power(1.0)) is Convexity.CONVEX_DOWN

    def test_square_is_convex_down(self):
        assert reciprocal_convexity(Power(2.0)) is Convexity.CONVEX_DOWN

    def test_square_root_is_convex_up(self):
        # 1/psi = sqrt(t) has negative second derivative.
        assert reciprocal_convexity(Power(0.5)) is Convexity.CONVEX_UP

    def test_mixed_power_log_is_neither(self):
        # The second differences of 1/psi = t**1.05 / log(t + 60) are
        # positive at nodes 2..7 and negative at nodes 8..64.
        assert reciprocal_convexity(PowerLog(1.05, 1.0, 60.0)) is Convexity.NEITHER
