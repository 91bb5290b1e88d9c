import math
import tracemalloc

import numpy as np
import pytest

from zygmund import witness
from zygmund.decay import MethodParams, Power, PowerLog, growth_function
from zygmund.errors import CoefficientMismatchError, ParameterError
from zygmund.norms import NormRequest, l1_norm, lq_norm
from zygmund.trig import convolve, max_coeff_diff, vallee_poussin
from zygmund.witness import (
    WitnessConfig,
    build_witness,
    calibrate_alpha0,
    dual_test_poly,
    vp_pulse,
)


def config(r=1.0, s=1.0, q=2.0, beta=0.0, n=8, psi=None):
    return WitnessConfig(psi=psi or Power(r), method=MethodParams(s=s, q=q, beta=beta), n=n)


class TestCalibration:
    def test_order_one_is_quarter(self):
        # V_1 - 1/2 = cos t, whose L_1 norm over the period is 4.
        assert calibrate_alpha0(1) == pytest.approx(0.25, abs=1e-6)

    def test_defining_identity(self):
        for n in (2, 8, 32):
            pulse = vp_pulse(n)
            assert calibrate_alpha0(n) * l1_norm(pulse) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_upper_bound_direction(self):
        n = 4
        alpha0 = calibrate_alpha0(n)
        assert alpha0 > 0.0
        assert alpha0 * (math.pi + l1_norm(vallee_poussin(n))) >= 1.0

    def test_pulse_structure(self):
        pulse = vp_pulse(4)
        assert pulse.a0 == 0.0
        assert pulse.degree == 7
        assert pulse.a[:4] == pytest.approx(np.ones(4), abs=1e-15)
        assert pulse.a[4] == pytest.approx(2.0 * (1.0 - 5.0 / 8.0), abs=1e-15)


class TestBuildWitness:
    def test_order_one_witness(self):
        # The dual has degree n - 1, so a witness needs n >= 2.
        with pytest.raises(ParameterError):
            config(n=1)

    def test_harmonic_n_comes_from_the_first_block(self):
        n = 8
        res = build_witness(config(n=n))
        # k = n sits in the undamped block: coefficient alpha0 * psi(n) * 1.
        assert res.f.a[n - 1] == pytest.approx(res.alpha0 * (1.0 / n), rel=1e-12)

    def test_degree_is_2n_minus_1(self):
        res = build_witness(config(n=8))
        assert res.f.degree == 15

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_direct_expansion_matches_convolution(self, n, beta):
        cfg = config(beta=beta, n=n)
        res = build_witness(cfg)
        assert max_coeff_diff(res.f, convolve(cfg.psi, beta, res.phi)) < 1e-10

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_source_is_unit_ball_member(self, n):
        res = build_witness(config(n=n))
        recomputed = l1_norm(res.phi)
        assert recomputed == pytest.approx(1.0, abs=1e-8)

    def test_holder_chain(self):
        for n in (4, 8, 16, 32):
            cfg = config(n=n)
            res = build_witness(cfg)
            assert res.lower_bound <= res.deviation + 1e-9
            # the carried dual is the one the Hölder quotient divides by
            dual_norm = lq_norm(res.dual, NormRequest(q=cfg.method.q_prime))
            assert res.lower_bound == res.pairing / dual_norm


class TestDualPoly:
    def test_single_term(self):
        dual = dual_test_poly(config(n=2))
        assert dual.degree == 1
        assert dual.a[0] == pytest.approx(1.0, abs=1e-15)
        assert dual.b[0] == pytest.approx(0.0, abs=1e-15)

    def test_amplitude_arithmetic(self):
        # s chosen so the growth exponent s + 1/q' is 2: then
        # g(2) = 2**(2 - 1.5) = sqrt(2) and the amplitude g(2) * 2**(-1/2) is 1.
        dual = dual_test_poly(config(r=1.5, s=1.5, n=3))
        assert dual.a == pytest.approx([1.0, 1.0], abs=1e-14)
        # At s = 1 the exponents cancel (g == 1), leaving amplitude k**(-1/2).
        dual = dual_test_poly(config(r=1.5, s=1.0, n=3))
        assert dual.a == pytest.approx([1.0, 2.0**-0.5], abs=1e-14)

    def test_beta_rotation_turns_cosines_into_sines(self):
        dual = dual_test_poly(config(n=4, beta=1.0))
        assert np.max(np.abs(dual.a)) < 1e-14
        assert np.all(dual.b > 0.0)


class TestPairing:
    def test_single_term_closed_form(self):
        res = build_witness(config(n=2))
        alpha0 = calibrate_alpha0(2)
        assert res.pairing == pytest.approx(alpha0 * math.pi / 2.0, rel=1e-12)
        assert res.pairing_quadrature == pytest.approx(res.pairing, rel=1e-10)

    def test_closed_form_matches_quadrature_at_n16(self):
        res = build_witness(config(n=16))
        assert abs(res.pairing - res.pairing_quadrature) <= 1e-8 * max(1.0, abs(res.pairing))

    def test_quadrature_at_the_order_cap_is_exact_and_lean(self):
        cfg = config(n=1024)
        calibrate_alpha0(cfg.n)  # the cached L_1 calibration is not part of the quadrature
        tracemalloc.start()
        try:
            res = build_witness(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res.pairing_quadrature - res.pairing) <= 1e-14 * abs(res.pairing)
        assert peak < 8 * 2**20

    def test_beta_invariance(self):
        results = [build_witness(config(n=8, beta=beta)) for beta in (0.0, 0.5, 1.0)]
        values = [res.pairing for res in results]
        assert max(values) - min(values) < 1e-10
        quads = [res.pairing_quadrature for res in results]
        assert max(quads) - min(quads) < 1e-10

    def test_disagreeing_quadrature_raises(self, monkeypatch):
        # A dual scaled by 2 leaves the closed form unchanged and doubles the
        # quadrature, as broken orthogonality bookkeeping would.
        def doubled_dual(cfg):
            return 2.0 * dual_test_poly(cfg)

        monkeypatch.setattr(witness, "dual_test_poly", doubled_dual)
        with pytest.raises(CoefficientMismatchError, match="closed form"):
            build_witness(config(n=8))


class TestLowerBound:
    def test_raw_quotient_below_measured_deviation(self):
        for n in (4, 8, 16, 32):
            cfg = config(n=n)
            res = build_witness(cfg)
            dual = dual_test_poly(cfg)
            dual_norm = lq_norm(dual, NormRequest(q=cfg.method.q_prime))
            assert res.pairing / dual_norm <= res.deviation + 1e-9


class TestLogFamilyWitness:
    def test_powerlog_witness_is_consistent(self):
        psi = PowerLog(r=1.0, alpha=1.0, c=60.0)
        cfg = config(n=16, psi=psi)
        res = build_witness(cfg)
        assert res.pairing_quadrature == pytest.approx(res.pairing, rel=1e-10)
        assert res.lower_bound <= res.deviation + 1e-9
        k = np.arange(1.0, 16.0)
        expected = res.alpha0 * math.pi / 16.0 * float(
            np.sum(np.asarray(growth_function(psi, cfg.method, k)) ** 2 / k)
        )
        assert res.pairing == pytest.approx(expected, rel=1e-12)
