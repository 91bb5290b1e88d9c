"""The one reduction behind the rectangle rule.

`norms._power_sum` takes |.|^q of each piece of a grid in place and sums
it: one `sample` where one transform covers the grid, else each batch of
coset transforms as it is made, with the batch sums added pairwise.  A
coset grid is never held whole, so lq_norm holds at most one full-size
one-transform sample at a time and no full-size temporaries.
"""

import tracemalloc

import numpy as np
import pytest

import zygmund.norms
from oracles import constant
from zygmund.decay import MethodParams, Power, growth_function
from zygmund.norms import NormRequest, lq_norm
from zygmund.trig import TrigPoly, sample
from zygmund.witness import WitnessConfig, dual_test_poly

def random_poly(rng, degree):
    return TrigPoly(rng.standard_normal(), rng.standard_normal(degree), rng.standard_normal(degree))


class TestPowerSum:
    @pytest.mark.parametrize("m", [1 << 10, 1 << 16, 1 << 18])
    @pytest.mark.parametrize("q", [1.2, 1.5, 3.0, 4.0, 6.0])
    def test_matches_one_full_size_sum(self, m, q):
        rng = np.random.default_rng(m + int(10 * q))
        p = random_poly(rng, m // 4)
        assert zygmund.norms._coset_length(p.degree, m) == m
        expected = float(np.sum(np.abs(sample(p, m)) ** q))
        assert zygmund.norms._power_sum(p, q, m) == expected

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_sums_the_sample_in_place(self, q):
        # Degree 1023 on 2^17 nodes is one transform (M/L0 = 64 < 128).
        p = random_poly(np.random.default_rng(2), 1023)
        m = 1 << 17
        assert zygmund.norms._coset_length(p.degree, m) == m
        peaks = []
        for run in (lambda: sample(p, m), lambda: zygmund.norms._power_sum(p, q, m)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096


def pure_sine(degree):
    b = np.zeros(degree)
    b[-1] = 1.0
    return TrigPoly(0.0, np.zeros(degree), b)


POLYS = {
    "constant": lambda d: constant(-3.0),
    "random_with_mean": lambda d: random_poly(np.random.default_rng(d), d),
    "pure_sine": pure_sine,
}


class TestStreamedGrids:
    """On a coset grid the power sum streams the batches and never calls
    sample; it agrees with the sum over the whole sample to rounding."""

    @pytest.mark.parametrize("q", [1.2, 4.0 / 3.0, 1.5, 3.0])
    @pytest.mark.parametrize("kind", sorted(POLYS))
    @pytest.mark.parametrize("degree, m", [(7, 1 << 18), (127, 1 << 17), (1023, 1 << 18)])
    def test_default_thresholds(self, degree, m, kind, q, monkeypatch):
        self.check(POLYS[kind](degree), m, q, monkeypatch)

    @pytest.mark.parametrize("q", [1.2, 4.0 / 3.0, 1.5, 3.0])
    @pytest.mark.parametrize("kind", sorted(POLYS))
    @pytest.mark.parametrize("degree, m", [(7, 64), (7, 256), (100, 4096)])
    def test_few_cosets(self, small_grids, degree, m, kind, q, monkeypatch):
        self.check(POLYS[kind](degree), m, q, monkeypatch)

    @staticmethod
    def check(p, m, q, monkeypatch):
        assert zygmund.norms._coset_length(p.degree, m) < m
        expected = np.sum(np.abs(sample(p, m)) ** q)

        def no_sample(p, m):
            raise AssertionError("a streamed grid was sampled whole")

        monkeypatch.setattr(zygmund.norms, "sample", no_sample)
        got = zygmund.norms._power_sum(p, q, m)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_streamed_dual_norm_peak_memory():
    # The rate_q4 witness dual at n = 256, degree 255, at q' = 4/3: the
    # doubling reaches a 2^21-node grid, whose last midpoint sample alone
    # would take 8 MiB, and every sample from 2^17 nodes on is streamed in
    # coset batches.
    cfg = WitnessConfig(Power(1.0), MethodParams(s=1.0, q=4.0), 256)
    dual = dual_test_poly(cfg.method, growth_function(cfg.psi, cfg.method, np.arange(1.0, cfg.n)))
    req = NormRequest(q=cfg.method.q_prime)
    tracemalloc.start()
    try:
        lq_norm(dual, req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("q", [1.5, 3.0, 4.0])
def test_lq_norm_peak_memory(q, monkeypatch):
    # A cosine polynomial of degree 2^15: q = 1.5 samples 2^20 nodes, q = 3
    # 2^18 and q = 4 (one even-q rule) 2^17.  Sampling needs the half
    # spectrum and the output, 2 x 8 m bytes; the rest is O(degree), since
    # the sum works in place.
    degree = 1 << 15
    p = TrigPoly(0.0, 1.0 / np.arange(1.0, degree + 1.0), np.zeros(degree))
    sizes = []

    def recording(p, m):
        sizes.append(m)
        return sample(p, m)

    monkeypatch.setattr(zygmund.norms, "sample", recording)
    tracemalloc.start()
    try:
        lq_norm(p, NormRequest(q=q, tolerance=1e-8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 8 * max(sizes)
