import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zygmund.errors import ParameterError
from zygmund.norms import BestApproxResult, NormRequest, best_approx, l1_norm, l2_norm_coeffs, lq_norm
from zygmund.trig import TrigPoly, max_coeff_diff, sample, vallee_poussin, zygmund_sum

TWO_PI = 2.0 * math.pi


def random_poly(rng, degree, with_mean=True):
    a0 = rng.standard_normal() if with_mean else 0.0
    return TrigPoly(a0, rng.standard_normal(degree), rng.standard_normal(degree))


def brute_force_lq(p, q, m=1 << 20):
    """Single-shot high-resolution rectangle rule, independent of lq_norm's doubling."""
    v = sample(p, m)
    return float((TWO_PI / m * np.sum(np.abs(v) ** q)) ** (1.0 / q))


class TestLqNorm:
    def test_constant(self):
        p = TrigPoly.constant(2.0)
        for q in (1.0, 1.5, 2.0, 3.0):
            assert lq_norm(p, NormRequest(q=q)) == pytest.approx(TWO_PI ** (1.0 / q), rel=1e-12)

    def test_cosine_l2(self):
        p = TrigPoly(0.0, [1.0], [0.0])
        assert lq_norm(p, NormRequest(q=2.0)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_cosine_l4(self):
        # int cos^4 over the period is 3*pi/4 by power reduction; double-checked
        # against an independent high-resolution quadrature.
        p = TrigPoly(0.0, [1.0], [0.0])
        value = lq_norm(p, NormRequest(q=4.0))
        assert value == pytest.approx((3.0 * math.pi / 4.0) ** 0.25, rel=1e-12)
        assert value == pytest.approx(brute_force_lq(p, 4.0), rel=1e-10)

    def test_request_validation(self):
        with pytest.raises(ParameterError):
            NormRequest(q=0.5)
        with pytest.raises(ParameterError):
            NormRequest(q=2.0, tolerance=0.0)

    @given(scale=st.floats(-20.0, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, scale):
        rng = np.random.default_rng(17)
        p = random_poly(rng, 9)
        req = NormRequest(q=1.5)
        assert lq_norm(scale * p, req) == pytest.approx(abs(scale) * lq_norm(p, req), abs=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        req = NormRequest(q=2.5)
        for _ in range(10):
            p, q_poly = random_poly(rng, 8), random_poly(rng, 8)
            assert lq_norm(p + q_poly, req) <= lq_norm(p, req) + lq_norm(q_poly, req) + 1e-10

    def test_normalized_monotonicity_in_q(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            p = random_poly(rng, 7)
            normalized = [
                lq_norm(p, NormRequest(q=q)) / TWO_PI ** (1.0 / q) for q in (1.5, 2.0, 3.0, 4.0)
            ]
            assert all(x <= y + 1e-10 for x, y in zip(normalized, normalized[1:]))


class TestParseval:
    def test_cosine(self):
        assert l2_norm_coeffs(TrigPoly(0.0, [1.0], [0.0])) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_constant(self):
        assert l2_norm_coeffs(TrigPoly.constant(2.0)) == pytest.approx(math.sqrt(TWO_PI), rel=1e-15)

    def test_matches_quadrature_on_random_polys(self):
        rng = np.random.default_rng(31)
        req = NormRequest(q=2.0)
        for _ in range(10):
            p = random_poly(rng, 20)
            assert lq_norm(p, req) == pytest.approx(l2_norm_coeffs(p), rel=1e-10)


class TestL1:
    def test_constant(self):
        assert l1_norm(TrigPoly.constant(2.0)) == pytest.approx(TWO_PI, rel=1e-10)

    def test_cosine(self):
        assert l1_norm(TrigPoly(0.0, [1.0], [0.0])) == pytest.approx(4.0, rel=1e-8)

    def test_vallee_poussin_pulse_calibration_inequality(self):
        pulse = vallee_poussin(8) + TrigPoly.constant(-1.0)  # V_8 - 1/2
        lhs = l1_norm(pulse)
        rhs = math.pi + l1_norm(vallee_poussin(8))
        assert math.isfinite(lhs)
        assert lhs <= rhs


class TestBestApprox:
    def test_l2_truncation_is_optimal(self):
        f = TrigPoly(0.0, [1.0, 1.0], [0.0, 0.0])  # cos t + cos 2t
        res = best_approx(f, 2, NormRequest(q=2.0))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        assert res.minimizer.a[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(res.minimizer.a0) < 1e-12

    def test_feasible_function_gives_zero(self):
        rng = np.random.default_rng(37)
        f = random_poly(rng, 4)
        res = best_approx(f, 5, NormRequest(q=2.0))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert max_coeff_diff(res.minimizer, f) < 1e-12

    def test_l2_matches_parseval_tail(self):
        rng = np.random.default_rng(41)
        f = random_poly(rng, 12)
        n = 5
        res = best_approx(f, n, NormRequest(q=2.0))
        tail = math.sqrt(math.pi * float(np.sum(f.a[n - 1 :] ** 2 + f.b[n - 1 :] ** 2)))
        assert res.value == pytest.approx(tail, abs=1e-8)

    def test_q4_two_grid_self_consistency(self):
        f = TrigPoly(0.0, [0.0, 1.0], [0.0, 0.0])  # cos 2t
        lo = best_approx(f, 2, NormRequest(q=4.0))
        hi = best_approx(f.padded(255), 2, NormRequest(q=4.0))  # 1024 IRLS nodes, not 512
        assert lo.value == pytest.approx(hi.value, abs=1e-8)
        assert lo.value <= lq_norm(f, NormRequest(q=4.0)) + 1e-12
        assert lo.value >= 0.0

    def test_infimum_beats_any_zygmund_mean(self):
        rng = np.random.default_rng(43)
        f = random_poly(rng, 10)
        n = 4
        for q in (1.5, 2.0, 3.0):
            req = NormRequest(q=q)
            res = best_approx(f, n, req)
            for s in (0.5, 1.0, 2.0, 4.0):
                assert res.value <= lq_norm(f - zygmund_sum(f, n, s), req) + 1e-9

    def test_irls_converges_and_reports(self):
        rng = np.random.default_rng(47)
        f = random_poly(rng, 8)
        res = best_approx(f, 3, NormRequest(q=3.0))
        assert isinstance(res, BestApproxResult)
        assert res.converged
        assert res.iterations >= 1
        assert res.minimizer.degree <= 2

    def test_q_validation(self):
        f = TrigPoly(0.0, [1.0], [0.0])
        with pytest.raises(ParameterError):
            best_approx(f, 2, NormRequest(q=1.0))
