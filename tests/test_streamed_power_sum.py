"""The one reduction behind the rectangle rule.

`norms._power_sum` takes |.|^q of each piece of a grid in place and sums
it: one `sample` on a grid of at most norms._COSET_NODES nodes, else each
batch of coset transforms as it is made, with the batch sums added
pairwise.  A coset grid is never held whole, so lq_norm holds O(degree +
_COSET_NODES) values whatever the grid, and no full-size temporaries.
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
        # Bit for bit on one sample (m <= 2^16); to rounding on 2^18 nodes,
        # whose degree 2^16 folds onto four 2^16-node cosets.
        rng = np.random.default_rng(m + int(10 * q))
        p = random_poly(rng, m // 4)
        expected = float(np.sum(np.abs(sample(p, m)) ** q))
        got = zygmund.norms._power_sum(p, q, m)
        if m <= zygmund.norms._COSET_NODES:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_sums_the_sample_in_place(self, q):
        # 2^16 nodes, the largest grid of one sample.
        p = random_poly(np.random.default_rng(2), 1023)
        m = zygmund.norms._COSET_NODES
        peaks = []
        for run in (lambda: sample(p, m), lambda: zygmund.norms._power_sum(p, q, m)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096

    def test_peak_independent_of_grid(self):
        # Degree 2^16 folds onto 2^16-node cosets: summing 2^21 nodes (32
        # cosets) holds no more than summing 2^18 (4 cosets), where one
        # 2^21-node sample alone would take 16 MiB.
        p = random_poly(np.random.default_rng(3), 1 << 16)
        zygmund.norms._power_sum(p, 3.0, 1 << 18)  # first-call allocations
        peaks = []
        for m in (1 << 18, 1 << 21):
            tracemalloc.start()
            try:
                zygmund.norms._power_sum(p, 3.0, m)
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
        # 32-node cosets, which fold the degree-100 spectrum onto 4 rows.
        small_grids(32)
        self.check(POLYS[kind](degree), m, q, monkeypatch)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    @pytest.mark.parametrize("kind", ["padded_constant", "pure_sine", "random_with_mean"])
    def test_folded(self, kind, q, monkeypatch):
        # Degree 3 * 2^15 on 2^19 nodes: eight 2^16-node cosets, each
        # summing a folded table of three rows.
        degree = 3 << 15
        p = constant(-3.0).padded(degree) if kind == "padded_constant" else POLYS[kind](degree)
        self.check(p, 1 << 19, q, monkeypatch)

    @staticmethod
    def check(p, m, q, monkeypatch):
        assert m > zygmund.norms._COSET_NODES
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
def test_lq_norm_peak_memory(q):
    # A cosine polynomial of degree 2^15: q = 1.5 sums grids of 2^20 nodes,
    # q = 3 of 2^17 and q = 4 (one even-q rule) one of 2^17, all in cosets
    # of n = 2^16 nodes, onto whose Nyquist bin the top harmonic folds.  The
    # peak is a few complex arrays of degree + n values, whatever the grid:
    # one 2^20-node sample alone would take 8 MiB.
    degree = 1 << 15
    p = TrigPoly(0.0, 1.0 / np.arange(1.0, degree + 1.0), np.zeros(degree))
    tracemalloc.start()
    try:
        lq_norm(p, NormRequest(q=q, tolerance=1e-8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * (degree + zygmund.norms._COSET_NODES)
