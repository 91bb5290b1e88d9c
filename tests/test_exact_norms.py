"""Exact L_q norms at q = 2 and even q, Gauss-Jacobi panels at 1 < q < 2
for dense zeros, and midpoint-only doubling at other q.

lq_norm takes ||p||_2 from the coefficients (Parseval), ||p||_q at even
integer q from one rectangle rule on the first power of two m >= q * degree
nodes (p^q is a trigonometric polynomial of degree q * degree; the rule
integrates it exactly when m > q * degree, and when m = q * degree the one
aliased top harmonic is subtracted), and ||p||_q at other q by grid doubling
that samples only the new midpoints, from a start sized by 2 * degree.  The
oracle below is the doubling loop lq_norm used for every q != 1 before: it
re-samples the whole grid at each doubling, and starts from a grid sized by
2 * degree + 2, twice lq_norm's at power-of-two degrees.

At 1 < q < 2, a p with at least 1.5 * degree sign changes on 8 (degree + 1)
nodes is integrated between its zeros by Gauss-Jacobi rules instead, which
QUADPACK's QAWS rule on each panel checks (`oracles.qaws_lq`); the doubling
oracle is itself off by up to 7e-11 there.
"""

import math

import numpy as np
import pytest

import zygmund.norms
from oracles import constant, qaws_lq
from zygmund.decay import MethodParams, Power, growth_function
from zygmund.errors import ConvergenceError
from zygmund.norms import NormRequest, _dense_zeros, _gauss_jacobi, _panel_lq, l2_norm_coeffs, lq_norm
from zygmund.trig import TrigPoly, phased_poly, sample
from zygmund.witness import dual_test_poly

TWO_PI = 2.0 * math.pi


def rectangle(p, q, m):
    """The rectangle rule for ||p||_q on m uniform nodes."""
    v = sample(p, m)
    return float((TWO_PI / m * np.sum(np.abs(v) ** q)) ** (1.0 / q))


def doubling_lq(p, q, grid_m=512, tolerance=1e-10, sizes=None):
    """Rectangle rule on |p|^q, doubling the whole grid until two values agree.

    The size of every grid sampled is appended to `sizes` when it is given.
    Its first grid follows lq_norm's oversampling: 16 below q = 2, 2 above.
    """
    oversample = 16 if q < 2.0 else 2
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


def spy_power_sum(monkeypatch, record):
    """Patch norms._power_sum to pass (m, offset) of every call to record:
    the sum over the m nodes 2 pi (j + offset)/m."""
    power_sum = zygmund.norms._power_sum

    def recording(p, q, m, offset=0.0):
        record(m, offset)
        return power_sum(p, q, m, offset)

    monkeypatch.setattr(zygmund.norms, "_power_sum", recording)


@pytest.fixture
def sampled_sizes(monkeypatch):
    """The node count of every rectangle-rule grid lq_norm sums, in order.

    Every such grid passes through norms._power_sum, whether it is sampled
    whole or streamed in coset batches, and whether it is a first grid or a
    doubling's midpoints."""
    sizes = []
    spy_power_sum(monkeypatch, lambda m, offset: sizes.append(m))
    return sizes


@pytest.fixture
def power_sum_calls(monkeypatch):
    """(m, offset) of every rectangle-rule sum lq_norm takes, in order."""
    calls = []
    spy_power_sum(monkeypatch, lambda m, offset: calls.append((m, offset)))
    return calls


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


def takes_panels(p, q):
    return q < 2.0 and _dense_zeros(p)


class TestOtherQ:
    @pytest.mark.parametrize("q", [1.5, 2.5, 3.0])
    def test_matches_doubling_oracle(self, q, sampled_sizes):
        # Inputs with dense zeros at q < 2 (here degrees 1 and 3 at q = 1.5)
        # take the panels, sum no rectangle rule, and match QAWS per panel.
        rng = np.random.default_rng(int(10 * q))
        for degree in (1, 3, 17, 64, 128, 200, 1024):
            p = random_poly(rng, degree)
            sampled_sizes.clear()
            value = lq_norm(p, NormRequest(q=q))
            assert (sampled_sizes == []) == takes_panels(p, q)
            if takes_panels(p, q):
                pytest.importorskip("scipy.integrate")
                assert value == pytest.approx(qaws_lq(p, q), rel=1e-12)
            else:
                assert value == pytest.approx(doubling_lq(p, q), rel=1e-12)

    @pytest.mark.parametrize("q", [1.5, 2.5, 3.0])
    def test_same_sample_calls_as_oracle(self, q, power_sum_calls):
        # As many sums as the oracle's grids, from the oracle's first grid;
        # each later sum covers only the midpoints of the grid so far.
        rng = np.random.default_rng(int(100 * q))
        for degree in (1, 9, 50, 300):
            p = random_poly(rng, degree)
            if takes_panels(p, q):
                continue
            oracle = []
            doubling_lq(p, q, tolerance=1e-8, sizes=oracle)
            power_sum_calls.clear()
            lq_norm(p, NormRequest(q=q, tolerance=1e-8))
            assert len(power_sum_calls) == len(oracle)
            assert power_sum_calls[0] == (oracle[0], 0.0)
            assert power_sum_calls[1:] == [(m, 0.5) for m in oracle[:-1]]

    def test_samples_only_midpoints(self, power_sum_calls):
        # Each sum after the first covers the midpoints 2 pi (j + 1/2)/m of
        # the m-node grid built so far, and no other node: (m, 0), (m, 1/2),
        # (2m, 1/2), (4m, 1/2), ...
        p = random_poly(np.random.default_rng(30), 50)
        lq_norm(p, NormRequest(q=3.0))
        first = power_sum_calls[0]
        assert first == (512, 0.0) and len(power_sum_calls) >= 2
        assert power_sum_calls[1:] == [(512 << i, 0.5) for i in range(len(power_sum_calls) - 1)]


def long_double_legendre(k):
    """Nodes and weights of the k-point Gauss-Legendre rule, by Newton's
    method on the Legendre recurrence in long double, rounded to double."""
    ld = np.longdouble
    x = np.cos(np.pi * (np.arange(1, k + 1, dtype=ld) - ld(0.25)) / (k + ld(0.5)))

    def legendre(x):
        before, value = np.ones_like(x), x.copy()
        for j in range(2, k + 1):
            before, value = value, ((2 * j - 1) * x * value - (j - 1) * before) / j
        return before, value

    for _ in range(20):
        before, value = legendre(x)
        x = x - value * (x * x - 1) / (k * (x * value - before))
    before, _ = legendre(x)
    weights = 2 * (1 - x * x) / (k * before) ** 2
    order = np.argsort(x)
    return x[order].astype(float), weights[order].astype(float)


def dual(q, n):
    """The dual test polynomial of degree n - 1 that build_witness pairs at
    q against the deviation of psi = 1/k under the Fejér mean."""
    method = MethodParams(s=1.0, q=q)
    g = np.asarray(growth_function(Power(1.0), method, np.arange(1, n, dtype=float)), dtype=float)
    return dual_test_poly(method, g)


def double_zero(n, t0):
    """cos(nt) (1 - cos(t - t0)): 2n simple zeros and a double zero at t0."""
    a, b = np.zeros(n + 1), np.zeros(n + 1)
    a[n - 1] = 1.0
    a[n], b[n] = -0.5 * math.cos(t0), -0.5 * math.sin(t0)
    a[n - 2], b[n - 2] = -0.5 * math.cos(t0), 0.5 * math.sin(t0)
    return TrigPoly(0.0, a, b)


class TestPanels:
    """Gauss-Jacobi panels between the sign changes of p at 1 < q < 2."""

    @pytest.mark.parametrize("k", [8, 16])
    @pytest.mark.parametrize("q", [1.2, 4.0 / 3.0, 1.5, 1.9])
    def test_golub_welsch_matches_scipy(self, k, q):
        roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
        nodes, weights = _gauss_jacobi(k, q)
        x, w = roots_jacobi(k, q, q)
        assert np.max(np.abs(nodes - x)) <= 1e-14
        # _gauss_jacobi divides its weights by the weight function.
        assert weights * (1.0 - nodes**2) ** q == pytest.approx(w, rel=1e-12)

    def test_legendre_rule_at_q_0(self):
        # Nodes against numpy's leggauss(32), whose nodes are within 1e-17 of
        # the exact ones; weights against the rule solved in long double,
        # since leggauss rescales its weights to sum 2, which puts them
        # 4e-16 off.  The weights sum to 2 as well.
        nodes, weights = _gauss_jacobi(32, 0.0)
        x, _ = np.polynomial.legendre.leggauss(32)
        assert np.max(np.abs(nodes - x)) <= 1e-16
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        assert np.max(np.abs(weights - long_double_legendre(32)[1])) <= 2e-16

    @pytest.mark.parametrize("q, n", [(4.0, 2), (4.0, 8), (4.0, 64), (3.0, 16), (3.0, 128)])
    def test_dense_zero_duals_match_qaws_without_rectangle_rule(self, q, n, sampled_sizes):
        # The q' = 4/3 and q' = 3/2 dual norms of build_witness.
        p, q_prime = dual(q, n), MethodParams(s=1.0, q=q).q_prime
        assert _dense_zeros(p)
        value = lq_norm(p, NormRequest(q=q_prime))
        assert sampled_sizes == []
        pytest.importorskip("scipy.integrate")
        assert value == pytest.approx(qaws_lq(p, q_prime), rel=1e-12)

    def test_majorant_tail_still_doubles(self, sampled_sizes):
        # upper_bound_estimate's q = 1.5 tail for n = 8 at length 2048:
        # degree 2048 with only 2n sign changes.
        method = MethodParams(s=1.0, q=1.5)
        k = np.arange(8, 2049, dtype=float)
        tail = phased_poly(Power(1.0)(k), method.beta, first_k=8)
        assert not _dense_zeros(tail)
        value = lq_norm(tail, NormRequest(q=1.5, tolerance=1e-8))
        first = sampled_sizes[0]
        assert first == 16 * 4096 and len(sampled_sizes) >= 2
        assert sampled_sizes[1:] == [first << i for i in range(len(sampled_sizes) - 1)]
        assert value == pytest.approx(doubling_lq(tail, 1.5, tolerance=1e-8), rel=1e-9)

    @pytest.mark.parametrize("q", [4.0 / 3.0, 1.2])
    def test_double_zero_falls_back_to_doubling(self, q, sampled_sizes):
        # |p|^q has a kink of order 2q inside a panel, on which the rules on
        # 8 and 16 nodes disagree; lq_norm then takes the doubling.
        p = double_zero(32, 1.0)
        assert _dense_zeros(p)
        assert _panel_lq(p, q, 1e-10) is None
        value = lq_norm(p, NormRequest(q=q))
        assert sampled_sizes != []
        assert value == pytest.approx(doubling_lq(p, q), rel=1e-12)


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
