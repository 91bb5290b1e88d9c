"""The exact q = 1 norm against the doubling rectangle-rule oracle.

lq_norm computes ||p||_1 from the sign changes of p and its exact
antiderivative.  The oracle below is the grid-doubling quadrature that
lq_norm used at q = 1 before; it is independent of any zero finding, but
converges only quadratically because |p| has a corner at every zero.

The witness calibration ||V_n - 1/2||_1 takes its sign changes from the
closed form V_n - 1/2 = g / (2n(1 - cos t)) instead, and is checked against
l1_norm.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import brentq_zeros, constant
from zygmund import norms, rates, trig, witness
from zygmund.decay import MethodParams, Power, growth_function
from zygmund.errors import ConvergenceError
from zygmund.norms import NormRequest, l1_norm, lq_norm, sign_changes
from zygmund.rates import unit_ball_sources
from zygmund.trig import TrigPoly, _jet, deviation, from_samples, phased_poly, sample
from zygmund.witness import (
    WitnessConfig, _pulse_l1, _pulse_numerator, _pulse_zeros, build_witness, calibrate_alpha0, dual_test_poly,
    vp_pulse,
)

TWO_PI = 2.0 * math.pi


def doubling_l1(p, grid_m=512, tolerance=1e-8):
    """Rectangle rule on |p|, doubling the grid until two values agree."""
    m = max(grid_m, 16 * (1 << max(4, (2 * p.degree + 1).bit_length())))

    def rectangle(m):
        return float(TWO_PI / m * np.sum(np.abs(sample(p, m))))

    prev = rectangle(m)
    for _ in range(12):
        m *= 2
        curr = rectangle(m)
        if abs(curr - prev) < tolerance * max(1.0, abs(curr)):
            return curr
        prev = curr
    raise ConvergenceError("doubling_l1: no convergence")


def antiderivative(p, t):
    """a0 t/2 + sum (a_k sin kt - b_k cos kt)/k, summed term by term."""
    k = np.arange(1, p.degree + 1, dtype=float)
    phase = np.multiply.outer(np.atleast_1d(t), k)
    return p.a0 * t / 2.0 + np.sin(phase) @ (p.a / k) - np.cos(phase) @ (p.b / k)


def l1_from_zeros(p, z):
    """Sum of |P(z_{i+1}) - P(z_i)| over the given zeros, cyclically."""
    values = antiderivative(p, np.asarray(z))
    return float(np.sum(np.abs(np.diff(values, append=values[0] + math.pi * p.a0))))


def square(q):
    """q**2 in coefficient form, via exact sampling."""
    m = 1 << (4 * q.degree + 4).bit_length()
    v = sample(q, m)
    return from_samples(v * v, 2 * q.degree)


class TestClosedForms:
    def test_tangent_zero_has_no_sign_change(self):
        # 1 + cos t touches zero at t = pi; its L_1 norm is its integral.
        p = TrigPoly(2.0, [1.0], [0.0])
        assert l1_norm(p) == pytest.approx(TWO_PI, rel=1e-14)

    def test_triple_zeros(self):
        # sin^3 t = (3 sin t - sin 3t)/4, with triple zeros at 0 and pi.
        p = TrigPoly(0.0, [0.0, 0.0, 0.0], [0.75, 0.0, -0.25])
        assert l1_norm(p) == pytest.approx(8.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_close_pair_of_zeros(self, eps):
        # cos t - cos(eps) is positive only on (-eps, eps).
        c = math.cos(eps)
        p = TrigPoly(-2.0 * c, [1.0], [0.0])
        exact = 4.0 * math.sin(eps) - 4.0 * c * eps + TWO_PI * c
        assert sign_changes(p).size == 2
        assert l1_norm(p) == pytest.approx(exact, rel=1e-13)

    def test_request_settings_are_unused_at_q1(self):
        p = vp_pulse(8)
        coarse = NormRequest(q=1.0, tolerance=1e-2)
        assert lq_norm(p, coarse) == lq_norm(p, NormRequest(q=1.0)) == l1_norm(p)


class TestAgainstOracle:
    @pytest.mark.parametrize("degree", [1, 2, 5, 13, 40])
    def test_random_polynomials(self, degree):
        rng = np.random.default_rng(100 + degree)
        for _ in range(3):
            p = TrigPoly(rng.standard_normal(), rng.standard_normal(degree), rng.standard_normal(degree))
            assert l1_norm(p) == pytest.approx(doubling_l1(p, tolerance=1e-10), rel=1e-9)

    @pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-9])
    def test_pairs_split_from_double_zeros(self, delta):
        # q^2 - delta has a pair of zeros about 2 sqrt(delta)/|q'| apart
        # beside every zero of q.
        rng = np.random.default_rng(7)
        q = TrigPoly(0.0, rng.standard_normal(6), rng.standard_normal(6))
        p = square(q) + constant(-2.0 * delta)
        zeros_of_q = sign_changes(q).size
        assert sign_changes(p).size == 2 * zeros_of_q
        assert l1_norm(p) == pytest.approx(doubling_l1(p, tolerance=1e-10), rel=1e-9)

    def test_nonnegative_square_is_its_integral(self):
        rng = np.random.default_rng(9)
        q = TrigPoly(0.0, rng.standard_normal(12), rng.standard_normal(12))
        p = square(q)
        assert l1_norm(p) == pytest.approx(math.pi * p.a0, rel=1e-13)


class TestScreen:
    """The zero screen of sign_changes on zeros at sample nodes, and on a
    degree-4095 dual."""

    def test_zeros_on_nodes_settle_without_halving(self, monkeypatch):
        # The q = 1.5 head of upper_bound_estimate for psi = 1/k at n = 8 has
        # zeros on nodes of its 512-node sample.  Every cell beside such a
        # zero has one end on it, and f' keeps its sign there, so the screen
        # settles it without halving it toward the node.
        method = MethodParams(s=1.0, q=1.5)
        head = deviation(phased_poly(1.0 / np.arange(1.0, 8.0), method.beta), 8, method.s)
        calls = []
        monkeypatch.setattr(norms, "_jet", lambda p, t, orders: calls.append(orders) or _jet(p, t, orders))
        z = sign_changes(head)
        nodes = TWO_PI * np.arange(513) / 512
        assert np.min(np.abs(np.subtract.outer(z, nodes))) < 1e-12
        assert len(calls) <= 6
        assert z == pytest.approx(brentq_zeros(head), abs=1e-12)

    def test_peak_memory_of_the_degree_4095_dual(self):
        # The q' = 4/3 dual of build_witness(q = 4, n = 4096): 8190 zeros
        # over 262144 cells.  The screen's first level goes in blocks and
        # _jet frees each block's tables, so the peak is about the three
        # samples, held in one closed array, and one block of _jet.
        method = MethodParams(s=1.0, q=4.0)
        g = np.asarray(growth_function(Power(1.0), method, np.arange(1, 4096, dtype=float)), dtype=float)
        dual = dual_test_poly(method, g)
        sign_changes(dual.truncated(64))  # first-call allocations
        tracemalloc.start()
        try:
            z = sign_changes(dual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.size == 8190
        assert peak < 20e6


class TestPulseZeros:
    def test_zero_counts(self):
        counts = {n: sign_changes(vp_pulse(n)).size for n in (16, 64, 256, 1024)}
        assert counts == {16: 6, 64: 14, 256: 30, 1024: 58}

    def test_count_at_256_matches_a_dense_scan(self):
        v = sample(vp_pulse(256), 1 << 20)
        assert int(np.sum((v < 0.0) != (np.roll(v, -1) < 0.0))) == 30

    def test_close_root_pairs_at_256(self):
        # V_256 - 1/2 is even, with two zeros 7.9e-4 apart near t = 0.093 and
        # their mirror images near 2pi - 0.093.  Each pair falls inside one
        # cell of an 8 (degree + 1)-node scan; dropping both moves the norm
        # by 2.4e-6 relative, far outside a 1e-6 comparison.
        p = vp_pulse(256)
        z = sign_changes(p)
        near = ((z > 0.092) & (z < 0.094)) | ((z > TWO_PI - 0.094) & (z < TWO_PI - 0.092))
        pairs = z[near]
        assert pairs.size == 4
        assert pairs[1] - pairs[0] == pytest.approx(7.9e-4, abs=0.1e-4)
        assert pairs[3] - pairs[2] == pytest.approx(7.9e-4, abs=0.1e-4)

        coarse = sample(p, 1 << (8 * 512 - 1).bit_length())
        assert int(np.sum((coarse < 0.0) != (np.roll(coarse, -1) < 0.0))) == 26

        exact = l1_norm(p)
        assert exact == pytest.approx(l1_from_zeros(p, z), rel=1e-13)
        # 7.4818597591 is the oracle's rectangle rule on 2^24 nodes.
        assert exact == pytest.approx(7.4818597591, abs=5e-9)
        assert exact == pytest.approx(doubling_l1(p, grid_m=1024, tolerance=1e-8), rel=2e-8)
        without_pairs = l1_from_zeros(p, z[~near])
        assert without_pairs == pytest.approx(7.4818415, abs=1e-7)
        assert 1.0 - without_pairs / exact > 2e-6


class TestCalibration:
    @pytest.mark.parametrize("n", [1, 3, 16, 48])
    def test_alpha0_normalises_the_pulse(self, n):
        assert calibrate_alpha0(n) * doubling_l1(vp_pulse(n), grid_m=1024, tolerance=1e-10) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_cache_is_bounded(self):
        assert witness._pulse_l1.cache_info().maxsize == 64

    def test_witness_source_in_unit_ball(self):
        cfg = WitnessConfig(psi=Power(1.0), method=MethodParams(s=1.0, q=2.0), n=64)
        phi = build_witness(cfg).phi
        assert doubling_l1(phi, grid_m=1024, tolerance=1e-10) == pytest.approx(1.0, abs=1e-9)


class TestPulseClosedForm:
    """_pulse_l1 brackets the sign changes of g(t) = cos nt - cos 2nt - n(1 - cos t),
    with V_n - 1/2 = g / (2n(1 - cos t)), in the window [pi/(3n), 2 arcsin(n^-1/2)]."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024])
    def test_closed_form_matches_the_coefficients(self, n):
        # g = c p with c = 2n(1 - cos t), so g' = c' p + c p' and
        # g'' = c'' p + 2 c' p' + c p''; p and its derivatives come from _jet.
        t = np.random.default_rng(n).uniform(0.0, TWO_PI, 200)
        p, dp, d2p = _jet(vp_pulse(n), t, (0, 1, 2))
        c, dc, d2c = 2 * n * (1.0 - np.cos(t)), 2 * n * np.sin(t), 2 * n * np.cos(t)
        expected = (c * p, dc * p + c * dp, d2c * p + 2.0 * dc * dp + c * d2p)
        for r, (got, want) in enumerate(zip(_pulse_numerator(n, t, (0, 1, 2)), expected)):
            assert np.max(np.abs(got - want)) <= 1e-13 * n**2 * (2 * n) ** r

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 256])
    def test_sign_of_g_is_the_sign_of_the_pulse(self, n):
        t = math.pi * np.arange(1, 8193) / 8192
        (g,) = _pulse_numerator(n, t, (0,))
        p = vp_pulse(n)(t)
        settled = np.abs(p) > 1e-9 * n
        assert np.array_equal(np.sign(g[settled]), np.sign(p[settled]))
        # The window: V_n - 1/2 > 0 below pi/(3n) and <= 0 above t*.
        below, above = t <= math.pi / (3 * n), t >= 2.0 * math.asin(n**-0.5)
        assert np.all(p[below] > 0.0) and np.all(g[below] > 0.0)
        assert np.all(p[above] <= 1e-12 * n) and np.all(g[above] <= 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 48, 64, 255, 256, 1024, 4096])
    def test_matches_l1_norm(self, n):
        assert _pulse_l1.__wrapped__(n) == pytest.approx(l1_norm(vp_pulse(n)), rel=1e-12)

    def test_zero_counts(self):
        # V_n - 1/2 is even, so each zero in (0, pi) has a mirror image.
        counts = {n: 2 * _pulse_zeros(n).size for n in (16, 64, 256, 1024)}
        assert counts == {16: 6, 64: 14, 256: 30, 1024: 58}

    def test_close_root_pair_at_256(self):
        z = _pulse_zeros(256)
        pair = z[(z > 0.092) & (z < 0.094)]
        assert pair.size == 2
        assert pair[1] - pair[0] == pytest.approx(7.9e-4, abs=0.1e-4)
        general = sign_changes(vp_pulse(256))
        assert pair == pytest.approx(general[(general > 0.092) & (general < 0.094)], abs=1e-12)

    def test_reaches_no_sample_and_no_general_norm(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the calibration reached a general norm or a sample")

        for module, name in [
            (norms, "l1_norm"), (norms, "lq_norm"), (norms, "sign_changes"), (norms, "sample"),
            (trig, "sample"), (witness, "lq_norm"), (witness, "sample"),
        ]:
            monkeypatch.setattr(module, name, fail)
        assert _pulse_l1.__wrapped__(64) == pytest.approx(7.3098511671913, rel=1e-12)

    def test_peak_memory_at_16384(self):
        _pulse_l1.__wrapped__(64)  # imports and first-call allocations
        tracemalloc.start()
        try:
            _pulse_l1.__wrapped__(16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestUnitBallSources:
    def test_sources_have_unit_norm(self):
        for phi in unit_ball_sources(4, seed=1234):
            assert phi.degree == 64
            assert phi.a0 == 0.0
            assert doubling_l1(phi, tolerance=1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_sources_are_seeded(self):
        first = unit_ball_sources(3, seed=5)
        again = unit_ball_sources(5, seed=5)[:3]
        for p, q in zip(first, again):
            assert np.array_equal(p.a, q.a) and np.array_equal(p.b, q.b)

    def test_sources_do_not_depend_on_the_hash_seed(self):
        code = (
            "from zygmund.rates import unit_ball_sources\n"
            "for p in unit_ball_sources(3, 5):\n"
            "    print(*map(float.hex, p.a), *map(float.hex, p.b))"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 3

    def test_sources_are_normalized_once_per_count_and_seed(self, monkeypatch):
        # unit_ball_deviations asks for the same sources at every order n.
        calls = []
        monkeypatch.setattr(rates, "l1_norm", lambda p: calls.append(p) or l1_norm(p))
        unit_ball_sources.cache_clear()
        first = unit_ball_sources(3, seed=77)
        again = unit_ball_sources(3, seed=77)
        assert again is first
        assert len(calls) == 3 and len(again) == 3
        assert unit_ball_sources.cache_info().maxsize == 16
