"""Coset sampling: the rectangle rule's power sum covers a large, heavily
oversampled grid as r interleaved short inverse FFTs (`norms._coset_batches`)
instead of one full-length transform, while `sample` is always that one
transform.

Every value is checked against a full-length `irfft` built here: to
rounding for the coset batches assembled into the grid, and bit for bit for
`sample`.  Small r are reached by lowering the private size thresholds,
which changes when cosets are used but not how they are computed.
"""

import numpy as np
import pytest

import zygmund.norms as norms
from zygmund.trig import TrigPoly, sample


def oracle(p, m):
    spectrum = np.zeros(m // 2 + 1, dtype=complex)
    spectrum[0] = 0.5 * p.a0 * m
    spectrum[1 : p.degree + 1] = 0.5 * m * (p.a - 1j * p.b)
    return np.fft.irfft(spectrum, n=m)


def random_poly(degree, seed=0):
    rng = np.random.default_rng(seed)
    return TrigPoly(rng.standard_normal(), rng.standard_normal(degree), rng.standard_normal(degree))


def pure_sine(degree):
    b = np.zeros(degree)
    b[-1] = 1.0
    return TrigPoly(0.0, np.zeros(degree), b)


POLYS = {
    "degree0": lambda d: TrigPoly.constant(3.0),
    "random_with_mean": lambda d: random_poly(d, seed=d),
    "pure_sine": pure_sine,
}


def cosets(degree, m):
    return m // norms._coset_length(degree, m)


def assembled(p, m):
    """The grid of m values that the coset batches of p cover, in node order."""
    n = norms._coset_length(p.degree, m)
    grid = np.empty(m)
    columns = grid.reshape(n, m // n)
    c0 = 0
    for batch in norms._coset_batches(p, n, m):
        columns[:, c0 : c0 + len(batch)] = batch.T
        c0 += len(batch)
    assert c0 == m // n
    return grid


class TestAgainstFullTransform:
    # (degree, m, r): degree 7 has L0 = 16 and L = 32; degree 1023 sits at
    # the smallest ratio M/L0 = 128 that uses cosets.  The constant, of
    # degree 0, gets L = 32 and more cosets at the same M.
    @pytest.mark.parametrize(
        "degree, m, r", [(7, 1 << 18, 8192), (127, 1 << 17, 256), (1023, 1 << 18, 64)]
    )
    @pytest.mark.parametrize("kind", sorted(POLYS))
    def test_default_thresholds(self, kind, degree, m, r):
        assert cosets(degree, m) == r
        self.check(POLYS[kind](degree), m)

    @pytest.mark.parametrize("degree, m, r", [(7, 64, 2), (7, 256, 8), (100, 4096, 8)])
    @pytest.mark.parametrize("kind", sorted(POLYS))
    def test_few_cosets(self, small_grids, kind, degree, m, r):
        assert cosets(degree, m) == r
        self.check(POLYS[kind](degree), m)

    @staticmethod
    def check(p, m):
        assert cosets(p.degree, m) > 1
        expected = oracle(p, m)
        got = assembled(p, m)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestOneTransform:
    # sample is one transform at every grid; these are also the grids on
    # which the power sum takes one sample (r = 1): a small grid, a ratio
    # M/L0 below 128, and degrees too large for cosets at the largest grids
    # the norms sample.  Degree base/2 - 1 has L0 = base.
    @pytest.mark.parametrize(
        "degree, m", [(7, 1 << 16), (1023, 1 << 17), (1 << 15, 1 << 21), (1 << 17, 1 << 19), (3, 8)]
    )
    @pytest.mark.parametrize("kind", ["random_with_mean", "pure_sine"])
    def test_bit_identical(self, kind, degree, m):
        p = POLYS[kind](degree)
        assert cosets(p.degree, m) == 1
        np.testing.assert_array_equal(sample(p, m), oracle(p, m))

    @pytest.mark.parametrize("ratio", [2, 4, 8, 16, 32, 64])
    def test_ratio_below_128(self, ratio):
        m = 1 << 21
        base = m // ratio
        assert cosets(base // 2 - 1, m) == 1


class TestOwnership:
    @pytest.mark.parametrize("m", [1 << 10, 1 << 18])
    def test_unshared(self, m):
        p = random_poly(127)
        first, second = sample(p, m), sample(p, m)
        for arr in (p.a, p.b, second):
            assert not np.shares_memory(first, arr)
