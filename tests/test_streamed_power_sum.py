"""Copy-free sampling and the streamed power sum behind the rectangle rule.

`sample` hands out its own inverse-FFT output, read-only, without a copy.
`norms._power_sum` sums |p(t_j)|^q block by block through one small scratch
buffer, so lq_norm holds one full-size sample at a time and no full-size
temporaries.
"""

import tracemalloc

import numpy as np
import pytest

import zygmund.norms
from zygmund.norms import NormRequest, lq_norm
from zygmund.trig import TrigPoly, sample

BLOCK = zygmund.norms._BLOCK


def random_poly(rng, degree):
    return TrigPoly(rng.standard_normal(), rng.standard_normal(degree), rng.standard_normal(degree))


class TestPowerSum:
    @pytest.mark.parametrize("m", [BLOCK // 64, BLOCK, 4 * BLOCK])
    @pytest.mark.parametrize("q", [1.2, 1.5, 3.0, 4.0, 6.0])
    def test_matches_one_full_size_sum(self, m, q):
        rng = np.random.default_rng(m + int(10 * q))
        p = random_poly(rng, m // 4)
        expected = float(np.sum(np.abs(sample(p, m)) ** q))
        assert zygmund.norms._power_sum(p, q, m) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_scratch_is_one_block(self, q):
        v = sample(random_poly(np.random.default_rng(2), 100), 8 * BLOCK)
        tracemalloc.start()
        try:
            zygmund.norms._abs_power_sum(v, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * BLOCK + 4096


class TestSampleOwnership:
    def test_sample_values_are_read_only(self):
        v = sample(random_poly(np.random.default_rng(1), 5), 16)
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0


@pytest.mark.parametrize("q", [1.5, 3.0, 4.0])
def test_lq_norm_peak_memory(q, monkeypatch):
    # A cosine polynomial of degree 2^15: q = 1.5 samples 2^20 nodes, q = 3
    # 2^18 and q = 4 (one even-q rule) 2^17.  Sampling needs the half
    # spectrum and the output, 2 x 8 m bytes; the rest is O(degree) and the
    # sum's scratch.
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
