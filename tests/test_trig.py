import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import constant, dirichlet, dirichlet_closed, vallee_poussin_by_averaging
from zygmund.decay import Power, PowerLog
from zygmund.errors import ParameterError
from zygmund.trig import (
    TrigPoly,
    _derivative,
    _jet,
    convolve,
    deviation,
    fejer_sum,
    from_samples,
    max_coeff_diff,
    phased_poly,
    psi_beta_derivative,
    sample,
    vallee_poussin,
    zygmund_sum,
)

TWO_PI = 2.0 * math.pi


def random_poly(rng, degree, with_mean=False):
    a0 = rng.standard_normal() if with_mean else 0.0
    return TrigPoly(a0, rng.standard_normal(degree), rng.standard_normal(degree))


def kernel(psi, beta, length):
    """Psi_beta truncated at `length` harmonics."""
    return phased_poly(psi(np.arange(1, length + 1, dtype=float)), beta)


def convolution_oracle(psi, beta, phi: TrigPoly, x: np.ndarray, m: int = 512) -> np.ndarray:
    """(1/pi) * integral of Psi_beta(x - t) * phi(t) dt by the rectangle rule.

    The kernel is realized to twice the degree of phi, so its harmonics past
    that degree enter the sum and must integrate to zero; m must exceed
    three times the degree for the rule to be exact."""
    poly = kernel(psi, beta, 2 * phi.degree)
    t = TWO_PI * np.arange(m) / m
    phi_t = phi(t)
    return np.array(
        [(1.0 / math.pi) * (TWO_PI / m) * float(np.sum(poly(xi - t) * phi_t)) for xi in np.atleast_1d(x)]
    )


class TestEvalPoly:
    def test_constant(self):
        assert constant(2.0)(1.3) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_at_zero(self):
        p = TrigPoly(0.0, [1.0], [0.0])
        assert p(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_mixed_harmonics_at_half_pi(self):
        p = TrigPoly(0.0, [1.0, 0.0], [0.0, 1.0])  # cos t + sin 2t
        assert p(math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_periodicity(self):
        rng = np.random.default_rng(7)
        p = random_poly(rng, 6, with_mean=True)
        for t in (0.1, 2.0, 5.5):
            assert p(t) == pytest.approx(p(t + TWO_PI), abs=1e-12)


def dense_values(p: TrigPoly, t) -> np.ndarray:
    """a0/2 + cos(t k) @ a + sin(t k) @ b over the full (points x degree) phase matrix."""
    phase = np.multiply.outer(np.asarray(t, dtype=float), np.arange(1, p.degree + 1, dtype=float))
    return p.a0 / 2.0 + np.cos(phase) @ p.a + np.sin(phase) @ p.b


def dense_tolerance(p: TrigPoly) -> float:
    return 1.0e-13 * (abs(p.a0) / 2.0 + float(np.sum(np.hypot(p.a, p.b))))


class TestPointEvaluator:
    """TrigPoly.__call__ against the dense phase-matrix formula."""

    @pytest.mark.parametrize("degree", [0, 1, 7, 2047])
    def test_matches_dense_formula(self, degree):
        rng = np.random.default_rng(degree)
        p = random_poly(rng, degree, with_mean=True)
        tol = dense_tolerance(p)
        scalar = float(rng.uniform(-TWO_PI, TWO_PI))
        value = p(scalar)
        assert isinstance(value, float)
        assert abs(value - dense_values(p, scalar)) <= tol
        for shape in [(33,), (4, 9)]:
            t = rng.uniform(-TWO_PI, TWO_PI, size=shape)
            values = p(t)
            assert values.shape == shape
            assert np.max(np.abs(values - dense_values(p, t))) <= tol

    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_dirichlet_closed_near_the_singularities(self, k):
        # |sin(t/2)| < 1e-8 falls back to the coefficient series, i.e. __call__.
        t = np.add.outer(TWO_PI * np.arange(-1, 3), [-1.0e-9, -1.0e-12, 0.0, 1.0e-12, 1.0e-9])
        values = dirichlet_closed(k, t)
        assert values.shape == t.shape
        p = dirichlet(k)
        assert np.max(np.abs(values - dense_values(p, t))) <= dense_tolerance(p)
        assert np.max(np.abs(values - (k + 0.5))) <= dense_tolerance(p)


def one_product_jet(p: TrigPoly, t: np.ndarray, orders: tuple) -> list:
    """_jet's sums as one matrix product over all the points, unblocked."""
    d = p.degree
    width = math.isqrt(d) + 1
    rows = -(-d // width)
    coef = np.zeros((len(orders) * rows, width), dtype=complex)
    for i, r in enumerate(orders):
        derivative = _derivative(p, r)
        coef[i * rows : (i + 1) * rows].flat[:d] = derivative.a - 1j * derivative.b
    inner = np.exp(1j * np.multiply.outer(t, np.arange(width)))
    outer = np.exp(1j * np.multiply.outer(t, width * np.arange(rows) + 1.0))
    products = (inner @ coef.T).reshape(t.size, len(orders), rows)
    sums = np.einsum("nrl,nl->rn", products, outer).real
    constant = {-1: 0.5 * p.a0 * t, 0: 0.5 * p.a0}
    return [sums[j] + constant.get(r, 0.0) for j, r in enumerate(orders)]


class TestJetBlocks:
    """_jet takes its points in blocks of 2048, each multiplied in batches of
    rows (one batch per block past degree 16000 or so), and still gives
    every point the values of one product over all the points, bit for
    bit."""

    @pytest.mark.parametrize("degree", [0, 1, 7, 255, 4095, 16641])
    @pytest.mark.parametrize("count", [1, 2, 3, 2047, 2049, 5000])
    def test_equals_one_product(self, degree, count):
        rng = np.random.default_rng(degree + count)
        p = random_poly(rng, degree, with_mean=True)
        t = rng.uniform(-TWO_PI, 2.0 * TWO_PI, count)
        for orders in ((0,), (0, 1), (-1, 0, 1, 2)):
            for got, expected in zip(_jet(p, t, orders), one_product_jet(p, t, orders)):
                assert np.array_equal(got, expected)

    def test_scratch_is_one_block(self):
        # Each block's tables are freed before the next block's are made, so
        # four blocks of points peak no higher than one.
        rng = np.random.default_rng(11)
        p = random_poly(rng, 4095, with_mean=True)
        peaks = {}
        for count in (2048, 4 * 2048):
            t = rng.uniform(0.0, TWO_PI, count)
            tracemalloc.start()
            try:
                _jet(p, t, (0, 1, 2))
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4 * 2048] < 1.1 * peaks[2048]


class TestKernels:
    def test_dirichlet_closed_at_origin(self):
        assert dirichlet_closed(3, 0.0) == pytest.approx(3.5, abs=1e-15)

    def test_dirichlet_series_at_pi(self):
        assert dirichlet(1)(math.pi) == pytest.approx(-0.5, abs=1e-15)

    def test_closed_form_matches_series(self):
        p = dirichlet(5)
        for t in (0.7, 1.9, 3.0):
            assert dirichlet_closed(5, t) == pytest.approx(p(t), abs=1e-12)

    def test_vallee_poussin_order_one_is_dirichlet(self):
        assert max_coeff_diff(vallee_poussin(1), dirichlet(1)) == 0.0

    def test_vallee_poussin_value_at_zero(self):
        # Average of D_2(0) = 2.5 and D_3(0) = 3.5.
        assert vallee_poussin(2)(0.0) == pytest.approx(3.0, abs=1e-13)
        avg = 0.5 * (dirichlet_closed(2, 0.0) + dirichlet_closed(3, 0.0))
        assert vallee_poussin(2)(0.0) == pytest.approx(avg, abs=1e-13)

    def test_vallee_poussin_two_forms_agree(self):
        explicit = vallee_poussin(8)
        averaged = vallee_poussin_by_averaging(8)
        t = TWO_PI * np.arange(64) / 64
        assert explicit(t) == pytest.approx(averaged(t), abs=1e-12)

    def test_kernel_poly_beta_zero(self):
        poly = kernel(Power(1.0), 0.0, 2)
        assert poly.a == pytest.approx([1.0, 0.5], abs=1e-15)
        assert poly.b == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_kernel_poly_beta_one_turns_cosine_into_sine(self):
        poly = kernel(Power(1.0), 1.0, 1)
        assert poly.a[0] == pytest.approx(0.0, abs=1e-15)
        assert poly.b[0] == pytest.approx(1.0, abs=1e-15)


class TestConvolve:
    def test_identity_harmonic(self):
        phi = TrigPoly(0.0, [1.0], [0.0])
        out = convolve(Power(1.0), 0.0, phi)
        assert out.a[0] == pytest.approx(1.0, abs=1e-15)
        assert out.b[0] == pytest.approx(0.0, abs=1e-15)

    def test_beta_one_shifts_phase(self):
        phi = TrigPoly(0.0, [1.0], [0.0])
        out = convolve(Power(1.0), 1.0, phi)
        # cos x maps to cos(x - pi/2) = sin x; frozen against the quadrature oracle.
        xs = np.array([0.0, 0.4, 1.1, 2.8])
        oracle = convolution_oracle(Power(1.0), 1.0, phi, xs)
        assert out(xs) == pytest.approx(oracle, abs=1e-12)
        assert out(xs) == pytest.approx(np.sin(xs), abs=1e-12)

    def test_power_two_second_harmonic(self):
        phi = TrigPoly(0.0, [0.0, 1.0], [0.0, 1.0])  # cos 2t + sin 2t
        out = convolve(Power(2.0), 0.0, phi)
        xs = np.array([0.3, 1.7, 4.0])
        assert out(xs) == pytest.approx(convolution_oracle(Power(2.0), 0.0, phi, xs), abs=1e-12)
        assert out.a == pytest.approx([0.0, 0.25], abs=1e-15)
        assert out.b == pytest.approx([0.0, 0.25], abs=1e-15)

    def test_oracle_on_general_beta(self):
        rng = np.random.default_rng(11)
        phi = random_poly(rng, 6)
        xs = np.linspace(0.0, TWO_PI, 9)
        assert convolve(Power(1.5), 0.7, phi)(xs) == pytest.approx(
            convolution_oracle(Power(1.5), 0.7, phi, xs, m=1024), abs=1e-11
        )

    def test_any_degree_matches_the_oracle(self):
        # Degree 200 exceeds the unit-ball source degree (64) and the witness
        # degree 2n - 1 at n = 64.
        rng = np.random.default_rng(13)
        phi = random_poly(rng, 200)
        out = convolve(PowerLog(1.5, 1.0, 60.0), 0.3, phi)
        assert out.degree == 200
        xs = np.linspace(0.0, TWO_PI, 11)
        assert out(xs) == pytest.approx(
            convolution_oracle(PowerLog(1.5, 1.0, 60.0), 0.3, phi, xs, m=1024), abs=1e-11
        )

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ParameterError):
            convolve(Power(1.0), 0.0, TrigPoly(1.0, [1.0], [0.0]))

    def test_preserves_harmonic_subspaces(self):
        rng = np.random.default_rng(3)
        phi = random_poly(rng, 8)
        total = convolve(Power(1.3), 0.4, phi)
        for k in range(1, 9):
            single = TrigPoly(0.0, np.eye(8)[k - 1] * phi.a[k - 1], np.eye(8)[k - 1] * phi.b[k - 1])
            image = convolve(Power(1.3), 0.4, single).padded(8)
            mask = np.ones(8, dtype=bool)
            mask[k - 1] = False
            assert np.max(np.abs(image.a[mask])) < 1e-14
            assert np.max(np.abs(image.b[mask])) < 1e-14
            assert image.a[k - 1] == pytest.approx(total.a[k - 1], abs=1e-14)


class TestDerivative:
    def test_identity_at_first_harmonic(self):
        f = TrigPoly(0.0, [1.0], [0.0])
        out = psi_beta_derivative(f, Power(1.0), 0.0)
        assert out.a[0] == pytest.approx(1.0, abs=1e-15)

    def test_inverts_the_convolution_example(self):
        f = TrigPoly(0.0, [0.0, 0.25], [0.0, 0.0])
        out = psi_beta_derivative(f, Power(2.0), 0.0)
        assert out.a == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        phi = random_poly(rng, 16)
        back = psi_beta_derivative(convolve(Power(1.2), 0.7, phi), Power(1.2), 0.7)
        assert max_coeff_diff(back, phi) < 1e-12

    def test_underflow_raises(self):
        # psi(2) = 2**-1100 underflows to 0.0
        with pytest.raises(ParameterError, match="inversion ill-posed"):
            psi_beta_derivative(TrigPoly(0.0, [1.0, 1.0], [0.0, 0.0]), Power(1100.0), 0.0)


class TestSummation:
    def test_multiplier_table(self):
        f = TrigPoly(0.0, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])  # cos 2t + sin 3t
        out = zygmund_sum(f, 4, 2.0)
        assert out.a[1] == pytest.approx(0.75, abs=1e-15)
        assert out.b[2] == pytest.approx(0.4375, abs=1e-15)

    def test_order_one_keeps_only_the_constant(self):
        rng = np.random.default_rng(1)
        f = random_poly(rng, 10, with_mean=True)
        out = zygmund_sum(f, 1, 1.5)
        assert out.degree == 0
        assert out.a0 == f.a0

    def test_fejer_first_harmonic(self):
        f = TrigPoly(0.0, [1.0], [0.0])
        assert zygmund_sum(f, 2, 1.0).a[0] == pytest.approx(0.5, abs=1e-15)
        assert fejer_sum(f, 3).a[0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_fejer_equals_zygmund_s1_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = random_poly(rng, int(rng.integers(1, 12)), with_mean=True)
            n = int(rng.integers(1, 15))
            assert max_coeff_diff(fejer_sum(f, n), zygmund_sum(f, n, 1.0)) == 0.0

    def test_constant_unchanged(self):
        f = constant(3.0)
        assert max_coeff_diff(fejer_sum(f, 5), f) == 0.0

    def test_projection_degree(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = random_poly(rng, int(rng.integers(1, 20)), with_mean=True)
            n = int(rng.integers(1, 25))
            assert zygmund_sum(f, n, 0.7).degree <= n - 1

    @given(alpha=st.floats(-3.0, 3.0), n=st.integers(2, 12), s=st.floats(0.2, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, n, s):
        rng = np.random.default_rng(9)
        f = random_poly(rng, 8, with_mean=True)
        g = random_poly(rng, 8, with_mean=True)
        lhs = zygmund_sum(alpha * f + g, n, s)
        rhs = alpha * zygmund_sum(f, n, s) + zygmund_sum(g, n, s)
        assert max_coeff_diff(lhs, rhs) < 1e-12

    def test_multiplier_monotone_in_s(self):
        for n in (4, 9):
            for k in range(1, n):
                factors = [1.0 - (k / n) ** s for s in (0.5, 1.0, 2.0, 4.0)]
                assert all(x < y for x, y in zip(factors, factors[1:]))


class TestDeviation:
    def test_head_scaling(self):
        phi = TrigPoly(0.0, [1.0], [0.0])
        out = deviation(convolve(Power(1.0), 0.0, phi), 2, 1.0)
        assert out.a[0] == pytest.approx(0.5, abs=1e-15)

    def test_tail_passthrough(self):
        phi = TrigPoly(0.0, [0.0, 0.0, 1.0], [0.0] * 3)
        out = deviation(convolve(Power(1.0), 0.0, phi), 2, 1.0)
        assert out.a[2] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(12)
        phi = random_poly(rng, 12)
        f = convolve(Power(1.0), 0.3, phi)
        dev = deviation(f, 8, 1.5)
        direct = f - zygmund_sum(f, 8, 1.5)
        t = TWO_PI * np.arange(256) / 256
        assert dev(t) == pytest.approx(direct(t), abs=1e-12)
        assert max_coeff_diff(dev, direct) < 1e-13

    def test_truncation_precondition(self):
        # The Zygmund mean truncates below the order n, which must be at
        # least 1; an order past the source degree needs nothing more.
        f = convolve(Power(1.0), 0.0, TrigPoly(0.0, [1.0], [0.0]))
        with pytest.raises(ParameterError):
            deviation(f, 0, 1.0)
        assert deviation(f, 8, 1.0).a[0] == pytest.approx(1.0 / 8.0, abs=1e-15)


class TestSampling:
    def test_constant(self):
        v = sample(constant(2.0), 8)
        assert v == pytest.approx(np.ones(8), abs=1e-15)

    def test_cosine_on_four_points(self):
        v = sample(TrigPoly(0.0, [1.0], [0.0]), 4)
        assert v == pytest.approx([1.0, 0.0, -1.0, 0.0], abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        p = random_poly(rng, 10, with_mean=True)
        back = from_samples(sample(p, 64), degree=10)
        assert max_coeff_diff(back, p) < 1e-13

    def test_aliasing_guard(self):
        p = random_poly(np.random.default_rng(0), 10)
        with pytest.raises(ParameterError, match=r"M must be at least 2\*degree \+ 2"):
            sample(p, 16)
        with pytest.raises(ParameterError):
            sample(p, 48)  # not a power of two

    def test_sample_returns_a_float_array(self):
        v = sample(random_poly(np.random.default_rng(3), 5), 16)
        assert isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (16,)

    @pytest.mark.parametrize(
        "values", [np.zeros((4, 4)), np.zeros(1), np.zeros(48)], ids=["2-d", "length-1", "length-48"]
    )
    def test_from_samples_rejects_bad_shapes(self, values):
        with pytest.raises(ParameterError):
            from_samples(values)

    def test_from_samples_round_trips_a_plain_list(self):
        p = random_poly(np.random.default_rng(4), 6, with_mean=True)
        back = from_samples(sample(p, 16).tolist(), degree=6)
        assert max_coeff_diff(back, p) < 1e-13
