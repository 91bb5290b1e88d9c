"""Exact L_q norms at q = 2 and even q, and midpoint-only doubling at other q.

lq_norm takes ||p||_2 from the coefficients (Parseval), ||p||_q at even
integer q from one rectangle rule on the first power of two m >= q * degree
nodes (p^q is a trigonometric polynomial of degree q * degree; the rule
integrates it exactly when m > q * degree, and when m = q * degree the one
aliased top harmonic is subtracted), and ||p||_q at other q by grid doubling
that samples only the new midpoints, from a start sized by 2 * degree.  The
oracle below is the doubling loop lq_norm used for every q != 1 before: it
re-samples the whole grid at each doubling, and starts from a grid sized by
2 * degree + 2, twice lq_norm's at power-of-two degrees.
"""

import math

import numpy as np
import pytest

import zygmund.norms
from oracles import constant
from zygmund.decay import MethodParams
from zygmund.errors import ConvergenceError
from zygmund.norms import NormRequest, l2_norm_coeffs, lq_norm
from zygmund.trig import TrigPoly, sample

TWO_PI = 2.0 * math.pi


def rectangle(p, q, m):
    """The rectangle rule for ||p||_q on m uniform nodes."""
    v = sample(p, m)
    return float((TWO_PI / m * np.sum(np.abs(v) ** q)) ** (1.0 / q))


def doubling_lq(p, q, grid_m=512, tolerance=1e-10, sizes=None):
    """Rectangle rule on |p|^q, doubling the whole grid until two values agree.

    The size of every grid sampled is appended to `sizes` when it is given.
    """
    oversample = 16 if q < 2.0 else 4
    m = max(grid_m, oversample * (1 << max(4, (2 * p.degree + 1).bit_length())))

    def rule(m):
        if sizes is not None:
            sizes.append(m)
        return rectangle(p, q, m)

    prev = rule(m)
    for _ in range(12):
        m *= 2
        curr = rule(m)
        if abs(curr - prev) < tolerance * max(1.0, abs(curr)):
            return curr
        prev = curr
    raise ConvergenceError("doubling_lq: no convergence")


def random_poly(rng, degree):
    return TrigPoly(rng.standard_normal(), rng.standard_normal(degree), rng.standard_normal(degree))


@pytest.fixture
def sampled_sizes(monkeypatch):
    """The node count of every rectangle-rule grid lq_norm sums, in order.

    Every such grid passes through norms._power_sum, whether it is sampled
    whole or streamed in coset batches."""
    sizes = []
    power_sum = zygmund.norms._power_sum

    def recording(p, q, m):
        sizes.append(m)
        return power_sum(p, q, m)

    monkeypatch.setattr(zygmund.norms, "_power_sum", recording)
    return sizes


class TestEvenQ:
    @pytest.mark.parametrize("q", [4.0, 6.0, 8.0])
    def test_matches_doubling_oracle(self, q):
        rng = np.random.default_rng(int(q))
        for degree in (1, 2, 7, 40, 151, 300):
            p = random_poly(rng, degree)
            expected = doubling_lq(p, q)
            assert lq_norm(p, NormRequest(q=q)) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("q, integral", [(6.0, 5.0 * math.pi / 8.0), (8.0, 35.0 * math.pi / 64.0)])
    def test_cosine_power_closed_forms(self, q, integral):
        p = TrigPoly(0.0, [1.0], [0.0])
        assert lq_norm(p, NormRequest(q=q)) ** q == pytest.approx(integral, rel=1e-12)

    def test_grid_just_above_q_times_degree(self, sampled_sizes):
        # 6 * 21 + 2 = 128: the rule runs on 128 nodes, above the degree 126
        # of p^6, and agrees with the rule on eight times as many.
        p = random_poly(np.random.default_rng(21), 21)
        value = lq_norm(p, NormRequest(q=6.0))
        assert sampled_sizes == [128]
        v = sample(p, 1024)
        finer = float((TWO_PI / 1024 * np.sum(v**6)) ** (1.0 / 6.0))
        assert value == pytest.approx(finer, rel=1e-13)
        assert value == pytest.approx(doubling_lq(p, 6.0), rel=1e-12)

    def test_one_sample_at_large_degree(self, sampled_sizes):
        p = random_poly(np.random.default_rng(18), 1 << 18)
        value = lq_norm(p, NormRequest(q=4.0))
        assert sampled_sizes == [1 << 20]
        assert value == pytest.approx(rectangle(p, 4.0, 1 << 21), rel=1e-13)


class TestEvenQAliasedTop:
    """At d = 2^j and q = 4 or 8 the rule runs on exactly q * d nodes, where
    the top harmonic of p^q aliases onto the mean and is subtracted."""

    @pytest.mark.parametrize("q, integral", [(4.0, 3.0 * math.pi / 4.0), (8.0, 35.0 * math.pi / 64.0)])
    @pytest.mark.parametrize("phase", [0.0, math.pi / 2.0, 0.3])
    @pytest.mark.parametrize("j", [2, 5, 10])
    def test_closed_forms_on_q_times_degree_nodes(self, q, integral, phase, j, sampled_sizes):
        # cos(dt - phase): cos(dt) at phase 0, sin(dt) at pi/2, a mixed
        # phase otherwise; all have the L_q norm of cos t.
        d = 1 << j
        a, b = np.zeros(d), np.zeros(d)
        a[-1], b[-1] = math.cos(phase), math.sin(phase)
        value = lq_norm(TrigPoly(0.0, a, b), NormRequest(q=q))
        assert sampled_sizes == [int(q) * d]
        assert value**q == pytest.approx(integral, rel=1e-13)

    @pytest.mark.parametrize("j", [2, 3, 6, 9, 12])
    def test_random_polys_match_the_rule_on_twice_the_nodes(self, j, sampled_sizes):
        rng = np.random.default_rng(j)
        d = 1 << j
        for _ in range(4):
            p = random_poly(rng, d)
            sampled_sizes.clear()
            value = lq_norm(p, NormRequest(q=4.0))
            assert sampled_sizes == [4 * d]
            assert value == pytest.approx(rectangle(p, 4.0, 8 * d), rel=1e-13)

    def test_a_zero_top_pair_subtracts_nothing(self, sampled_sizes):
        # A zero top pair keeps the degree: the subtraction is 0, and the
        # rule on 4d nodes is exact for the true degree d - 1.
        p = random_poly(np.random.default_rng(7), 63).padded(64)
        value = lq_norm(p, NormRequest(q=4.0))
        assert sampled_sizes == [256]
        assert value == pytest.approx(rectangle(p, 4.0, 1024), rel=1e-13)


class TestQ2:
    def test_parseval_bitwise(self):
        rng = np.random.default_rng(2)
        for degree in (0, 1, 5, 64, 1000):
            p = random_poly(rng, degree)
            assert lq_norm(p, NormRequest(q=2.0)) == l2_norm_coeffs(p)

    def test_never_samples(self, sampled_sizes):
        p = random_poly(np.random.default_rng(3), 4096)
        lq_norm(p, NormRequest(q=2.0, tolerance=1e-14))
        assert sampled_sizes == []


class TestOtherQ:
    @pytest.mark.parametrize("q", [1.5, 2.5, 3.0])
    def test_matches_doubling_oracle(self, q):
        rng = np.random.default_rng(int(10 * q))
        for degree in (1, 3, 17, 64, 128, 200, 1024):
            p = random_poly(rng, degree)
            assert lq_norm(p, NormRequest(q=q)) == pytest.approx(doubling_lq(p, q), rel=1e-12)

    @pytest.mark.parametrize("q", [1.5, 2.5, 3.0])
    def test_same_sample_calls_as_oracle(self, q, sampled_sizes):
        rng = np.random.default_rng(int(100 * q))
        for degree in (1, 9, 50, 300):
            p = random_poly(rng, degree)
            oracle = []
            doubling_lq(p, q, tolerance=1e-8, sizes=oracle)
            sampled_sizes.clear()
            lq_norm(p, NormRequest(q=q, tolerance=1e-8))
            assert len(sampled_sizes) == len(oracle)
            assert sampled_sizes[0] == oracle[0]

    def test_samples_only_midpoints(self, sampled_sizes):
        # Each sample after the first covers the midpoints of the grid built
        # so far, so it is as large as that grid: m, m, 2m, 4m, ...
        p = random_poly(np.random.default_rng(30), 50)
        lq_norm(p, NormRequest(q=3.0))
        first = sampled_sizes[0]
        assert first == 512 and len(sampled_sizes) >= 2
        assert sampled_sizes[1:] == [first << i for i in range(len(sampled_sizes) - 1)]


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0, 6.0])
def test_degree_zero(q):
    p = constant(-3.0)
    assert lq_norm(p, NormRequest(q=q)) == pytest.approx(1.5 * TWO_PI ** (1.0 / q), rel=1e-14)
    assert lq_norm(p, NormRequest(q=q)) == pytest.approx(doubling_lq(p, q), rel=1e-14)


class TestIntegerDualExponent:
    """MethodParams.q_prime snaps integer conjugates, which lq_norm then
    takes by the one-shot even-q rule."""

    @pytest.mark.parametrize("q, q_prime", [(1.5, 3), (4.0 / 3.0, 4), (1.25, 5), (1.2, 6), (1.1, 11)])
    def test_exact_integer(self, q, q_prime):
        assert MethodParams(s=1.0, q=q).q_prime == float(q_prime)

    @pytest.mark.parametrize("q", [1.3, 2.5, 3.0, 7.0])
    def test_non_integer_unchanged(self, q):
        assert MethodParams(s=1.0, q=q).q_prime == q / (q - 1.0)

    def test_q_1_2_dual_norm_samples_once(self, sampled_sizes):
        q_prime = MethodParams(s=1.0, q=1.2).q_prime
        p = random_poly(np.random.default_rng(12), 64)
        value = lq_norm(p, NormRequest(q=q_prime))
        assert sampled_sizes == [512]
        assert value == pytest.approx(doubling_lq(p, 6.0), rel=1e-12)
