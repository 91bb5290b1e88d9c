"""Coset sampling: the rectangle rule's power sum covers every grid of more
than norms._COSET_NODES nodes as r interleaved inverse FFTs of
n = min(max(2 L0, m/16), _COSET_NODES) nodes (`norms._cosets`), each a
`sample` at an offset, folding the spectrum modulo n once the degree
reaches n/2, while `sample` is always one full-length transform.

Every value is checked against a full-length `irfft` built here: to
rounding (rel 1e-14) for the cosets assembled into the grid, at offset 0
and at the midpoints (offset 1/2), with the mirror images of the cosets
that an even or odd p does not transform, and for `sample` bit for bit at
offset 0 and to rounding at offset 1/2.  Small grids reach cosets and
folds by lowering _COSET_NODES (the `small_grids` fixture), which changes
where cosets start and how long they are but not how they are computed.
"""

import numpy as np
import pytest

import zygmund.norms as norms
from oracles import constant
from zygmund.trig import TrigPoly, _next_pow2, sample


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
    "degree0": lambda d: constant(3.0),
    "random_with_mean": lambda d: random_poly(d, seed=d),
    "pure_sine": pure_sine,
}

# Folded spectra: a constant padded to the degree, so that only the halved
# mean reaches the transform, and a sine at the top harmonic alone.
FOLDED = {
    "padded_constant": lambda d: constant(3.0).padded(d),
    "random_with_mean": lambda d: random_poly(d, seed=d),
    "pure_sine": pure_sine,
}


def coset_length(degree, m):
    if m <= norms._COSET_NODES:
        return m
    return min(max(2 * _next_pow2(2 * degree + 2), m // 16), norms._COSET_NODES)


def cosets(degree, m):
    return m // coset_length(degree, m)


def assembled(p, m, offset):
    """The m values at the nodes 2 pi (j + offset)/m, in node order, from
    the cosets that the power sum transforms: all of them, or, when
    |p(-t)| = |p(t)|, half of them and their mirror images.

    Negation maps node l of coset c onto node n - 1 - l of coset r - c at
    offset 0, and of coset r - 1 - c at offset 1/2; an odd p changes sign."""
    n = coset_length(p.degree, m)
    r = m // n
    count = norms._coset_weights(p, m, offset).size
    assert n <= norms._COSET_NODES
    columns = np.empty((r, n))
    transformed = list(norms._cosets(p, m, offset, count))
    assert len(transformed) == count and all(v.shape == (n,) for v in transformed)
    columns[:count] = transformed
    sign = -1.0 if p.b.any() else 1.0
    for c in range(count):
        image = (r - c) % r if offset == 0.0 else r - 1 - c
        if image >= count:
            columns[image] = sign * columns[c][::-1]
    return columns.T.ravel()


def check(p, m):
    # The grid, then the midpoints that a doubling of it adds: the odd nodes
    # of the grid of 2m nodes.
    assert cosets(p.degree, m) > 1
    for offset, expected in ((0.0, oracle(p, m)), (0.5, oracle(p, 2 * m)[1::2])):
        got = assembled(p, m, offset)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestAgainstFullTransform:
    # (degree, m, ratio), ratio = m/(2 L0): degree 7 has L0 = 16, degree
    # 1023 L0 = 2048.  Cosets of n = max(2 L0, m/16) nodes cap the ratio at
    # r = 16, for the constant of degree 0 too.
    @pytest.mark.parametrize(
        "degree, m, ratio", [(7, 1 << 18, 8192), (127, 1 << 17, 256), (1023, 1 << 18, 64)]
    )
    @pytest.mark.parametrize("kind", sorted(POLYS))
    def test_default_thresholds(self, kind, degree, m, ratio):
        assert m // (2 * _next_pow2(2 * degree + 2)) == ratio
        assert cosets(degree, m) == min(ratio, 16) == 16
        check(POLYS[kind](degree), m)

    # _COSET_NODES = m/r: the first two grids get cosets of 32 nodes, and
    # degree 100 gets 8 of 512 nodes.
    @pytest.mark.parametrize("degree, m, r", [(7, 64, 2), (7, 256, 8), (100, 4096, 8)])
    @pytest.mark.parametrize("kind", sorted(POLYS))
    def test_few_cosets(self, small_grids, kind, degree, m, r):
        small_grids(m // r)
        assert cosets(degree, m) == r
        check(POLYS[kind](degree), m)


class TestFolded:
    """Degrees of at least n/2, whose spectrum is folded modulo n = _COSET_NODES."""

    # With n = 64: degree 32 puts its top harmonic on the Nyquist bin; 64
    # and 200 reach past one coset; 128 = 2n leaves its top harmonic alone
    # on the last row of the folded table.
    @pytest.mark.parametrize("degree, m", [(32, 256), (64, 512), (128, 512), (200, 1024)])
    @pytest.mark.parametrize("kind", sorted(FOLDED))
    def test_small_cosets(self, small_grids, kind, degree, m):
        small_grids(64)
        assert coset_length(degree, m) == 64
        check(FOLDED[kind](degree), m)

    # The same cases at the default n = 2^16.
    @pytest.mark.parametrize("degree, m", [(1 << 15, 1 << 17), (1 << 16, 1 << 18), (3 << 16, 1 << 19)])
    @pytest.mark.parametrize("kind", sorted(FOLDED))
    def test_default_coset_length(self, kind, degree, m):
        assert coset_length(degree, m) == 1 << 16
        check(FOLDED[kind](degree), m)


class TestOneTransform:
    # sample is one transform at every grid, bit for bit, whether the power
    # sum takes it (m <= 2^16) or covers the grid by cosets.  Degree
    # base/2 - 1 has L0 = base.
    @pytest.mark.parametrize(
        "degree, m", [(7, 1 << 16), (1023, 1 << 17), (1 << 15, 1 << 21), (1 << 17, 1 << 19), (3, 8)]
    )
    @pytest.mark.parametrize("kind", ["random_with_mean", "pure_sine"])
    def test_bit_identical(self, kind, degree, m):
        p = POLYS[kind](degree)
        np.testing.assert_array_equal(sample(p, m), oracle(p, m))

    @pytest.mark.parametrize("ratio", [2, 4, 8, 16, 32, 64])
    def test_ratio_below_128(self, ratio):
        # Grids of fewer than 128 L0 nodes: sample stays the one transform,
        # and the power sum covers them by 2^16-node cosets, folded from
        # ratio 16 down, which agree with it to rounding.
        m = 1 << 21
        p = random_poly(m // ratio // 2 - 1, seed=ratio)
        expected = oracle(p, m)
        np.testing.assert_array_equal(sample(p, m), expected)
        assert cosets(p.degree, m) == m >> 16
        check(p, m)


class TestOffset:
    # sample(p, m, 1/2) is p at the midpoints 2 pi (j + 1/2)/m: the odd
    # nodes of the 2m-point transform.
    @pytest.mark.parametrize("degree, m", [(1, 4), (3, 16), (7, 1 << 16), (1023, 1 << 11), (1 << 14, 1 << 16)])
    @pytest.mark.parametrize("kind", sorted(POLYS))
    def test_midpoints(self, kind, degree, m):
        p = POLYS[kind](degree)
        expected = oracle(p, 2 * m)[1::2]
        got = sample(p, m, 0.5)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


# Every unfolded grid (degree below _COSET_NODES/2) from 2^17 to 2^20 nodes.
@pytest.mark.parametrize("m", [1 << 17, 1 << 18, 1 << 19, 1 << 20])
@pytest.mark.parametrize("degree", [1, 15, 255, 1024, 4095, (1 << 15) - 1])
def test_at_most_16_unfolded_cosets(degree, m):
    p = random_poly(degree, seed=degree)
    assert 2 * p.degree < norms._coset_length(p, m)
    r = m // norms._coset_length(p, m)
    assert 2 <= r <= 16
    assert sum(1 for _ in norms._cosets(p, m, 0.5, norms._coset_weights(p, m, 0.5).size)) == r


class TestOwnership:
    @pytest.mark.parametrize("m", [1 << 10, 1 << 18])
    def test_unshared(self, m):
        p = random_poly(127)
        first, second = sample(p, m), sample(p, m)
        for arr in (p.a, p.b, second):
            assert not np.shares_memory(first, arr)
