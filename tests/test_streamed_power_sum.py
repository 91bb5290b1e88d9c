"""The one reduction behind the rectangle rule.

`norms._power_sum` takes |.|^q of each piece of a grid in place and sums
it: one `sample` on a grid of at most norms._COSET_NODES nodes, else each
batch of coset transforms as it is made, with the coset sums added by
their weights.  A coset grid is never held whole, and a folded spectrum is
read from views of p's coefficients, so lq_norm holds O(_COSET_NODES)
values beside p whatever the grid, and no full-size temporaries.  The same
sum at offset 1/2 covers the midpoints that a doubling adds, and an even or
odd p transforms only the cosets that negation does not map onto others.
"""

import tracemalloc

import numpy as np
import pytest

import zygmund.norms
from oracles import constant
from zygmund.decay import MethodParams, Power, growth_function
from zygmund.norms import NormRequest, lq_norm
from zygmund.trig import TrigPoly, kernel_poly, sample
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

    @pytest.mark.parametrize("degree", [1023, 1 << 14])
    def test_midpoint_sum_holds_no_more_than_sample(self, degree):
        # The offset-1/2 sum rotates p's half spectrum in place: p's
        # harmonics are not built a second time beside it.
        p = random_poly(np.random.default_rng(4), degree)
        m = zygmund.norms._COSET_NODES
        sample(p, m)  # first-call allocations
        peaks = []
        for run in (lambda: sample(p, m), lambda: zygmund.norms._power_sum(p, 3.0, m, 0.5)):
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


def cosine_poly(rng, degree):
    return TrigPoly(rng.standard_normal(), rng.standard_normal(degree), np.zeros(degree))


def sine_poly(rng, degree):
    return TrigPoly(0.0, np.zeros(degree), rng.standard_normal(degree))


# |p(-t)| = |p(t)| for every kind but "general", whose sums take every coset.
KINDS = {
    "general": lambda d: random_poly(np.random.default_rng(d), d),
    "even": lambda d: cosine_poly(np.random.default_rng(d), d),
    "odd": lambda d: sine_poly(np.random.default_rng(d), d),
    "a0_only": lambda d: constant(-3.0).padded(d),
}


def midpoint_oracle(p, q, m):
    """sum |p|^q over the m midpoints 2 pi (j + 1/2)/m: the odd nodes of
    one 2m-point irfft."""
    spectrum = np.zeros(m + 1, dtype=complex)
    spectrum[0] = p.a0 * m
    spectrum[1 : p.degree + 1] = m * (p.a - 1j * p.b)
    return float(np.sum(np.abs(np.fft.irfft(spectrum, n=2 * m)[1::2]) ** q))


class TestMidpoints:
    """_power_sum(p, q, m, 1/2) sums the m midpoints 2 pi (j + 1/2)/m, the
    nodes that a doubling of the m-node grid adds."""

    @pytest.mark.parametrize("q", [1.5, 3.0])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize(
        "degree, m",
        # unfolded (2 * degree < n), then folded onto 2^16-node cosets:
        # whole rows of 2^16 coefficients, one ragged row alone, and whole
        # rows with a ragged last one
        [(7, 1 << 18), (1023, 1 << 17), (1 << 16, 1 << 18), (1 << 15, 1 << 17), ((1 << 16) + 5, 1 << 18)],
    )
    def test_default_thresholds(self, degree, m, kind, q):
        assert m > zygmund.norms._COSET_NODES
        p = KINDS[kind](degree)
        got = zygmund.norms._power_sum(p, q, m, 0.5)
        assert got == pytest.approx(midpoint_oracle(p, q, m), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize(
        "nodes, degree, m",
        # 32-node cosets of degree 7 (two and eight of them), then 64-node
        # cosets folding degrees 32 (one ragged row), 64, 100 and 200
        [(32, 7, 64), (32, 7, 256), (64, 32, 256), (64, 64, 512), (64, 100, 512), (64, 200, 1024)],
    )
    def test_small_grids(self, small_grids, nodes, degree, m, kind, q):
        small_grids(nodes)
        p = KINDS[kind](degree)
        got = zygmund.norms._power_sum(p, q, m, 0.5)
        assert got == pytest.approx(midpoint_oracle(p, q, m), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("degree, m", [(1, 512), (100, 512), (20000, 1 << 16)])
    def test_one_sample_bitwise(self, degree, m):
        # the rotated harmonics that lq_norm's doubling once sampled as a
        # shifted polynomial
        rng = np.random.default_rng(degree)
        p = random_poly(rng, degree)
        rotated = (p.a - 1j * p.b) * np.exp(1j * np.pi / m * np.arange(1, p.degree + 1))
        v = sample(TrigPoly(p.a0, rotated.real, -rotated.imag), m)
        assert zygmund.norms._power_sum(p, 3.0, m, 0.5) == np.sum(np.abs(v) ** 3.0)


class TestMirrorCosets:
    """A p with |p(-t)| = |p(t)| transforms only the cosets that negation
    does not map onto others."""

    @staticmethod
    def transforms(monkeypatch, p, m, offset):
        rows = []
        batches = zygmund.norms._coset_batches

        def counting(*args):
            for batch in batches(*args):
                rows.append(len(batch))
                yield batch

        monkeypatch.setattr(zygmund.norms, "_coset_batches", counting)
        zygmund.norms._power_sum(p, 3.0, m, offset)
        return sum(rows)

    @pytest.mark.parametrize(
        "kind, degree, m, r",
        [("even", 1 << 15, 1 << 20, 16), ("odd", 1 << 16, 1 << 19, 8), ("a0_only", 7, 1 << 18, 8192)],
    )
    def test_half_the_cosets(self, monkeypatch, kind, degree, m, r):
        p = KINDS[kind](degree)
        assert self.transforms(monkeypatch, p, m, 0.0) == r // 2 + 1
        assert self.transforms(monkeypatch, p, m, 0.5) == r // 2

    @pytest.mark.parametrize("degree, m, r", [(1 << 15, 1 << 20, 16), (7, 1 << 18, 8192)])
    def test_general_p_takes_every_coset(self, monkeypatch, degree, m, r):
        p = KINDS["general"](degree)
        for offset in (0.0, 0.5):
            assert self.transforms(monkeypatch, p, m, offset) == r


def test_folded_power_sum_peak_memory():
    # A cosine polynomial of degree 2^18 on 2^20 nodes: sixteen 2^16-node
    # cosets, each folded from views of p's four rows of coefficients.  A
    # table of the half spectrum alone would take 5 MiB.
    degree = 1 << 18
    p = TrigPoly(0.0, 1.0 / np.arange(1.0, degree + 1.0), np.zeros(degree))
    tracemalloc.start()
    try:
        zygmund.norms._power_sum(p, 3.0, 1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_doubling_peak_memory():
    # A majorant tail of degree 2^17 at q = 3: grids of 2^19 nodes and up,
    # whose doublings sum the midpoints as offset cosets; a shifted copy of
    # p alone would take 2 MiB.
    tail = kernel_poly(Power(1.0), 0.0, 1 << 17, 16)
    tracemalloc.start()
    try:
        lq_norm(tail, NormRequest(q=3.0, tolerance=1e-8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
