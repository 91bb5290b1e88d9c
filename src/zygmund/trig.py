"""Trigonometric polynomial algebra, the Vallée-Poussin kernel, and summation operators.

Everything here works on the finite cosine/sine coefficient form

    p(t) = a0/2 + sum_{k=1}^{d} (a_k cos kt + b_k sin kt),

which is the universal computational object of the library.  Every
operator on it is a Fourier multiplier: it multiplies harmonic k, written
c_k = a_k - i b_k (`_harmonics`), by a number m_k, and `_times(p, m)` is
that product.  Convolution with the kernel Psi_beta of a profile psi,
whose harmonics first_k..last_k `kernel_poly` builds, multiplies by
psi(k) e^{-i beta pi/2}, so `convolve` reads psi(1..degree of phi) and
nothing else, and `psi_beta_derivative` divides by it.  d/dt multiplies
by ik (`_derivative`), the shift p(t + h) of a zero-mean p by e^{ikh}, and
the Zygmund sum and its deviation f - Z(f) by the real 1 - (k/n)^s and
min(k/n, 1)^s.

`sample` evaluates p on M uniform nodes, at offset 0 or shifted by a
fraction of a node, by one inverse FFT and returns a fresh array that the
caller owns; `from_samples` reads an offset-0 array back
into coefficients.  Off that grid there is one evaluator, `_jet`: exact
values of p and of its derivatives at any points, in
O(points * sqrt(degree)) memory; `TrigPoly.__call__` is its order 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .decay import PsiFunction
from .errors import ParameterError

__all__ = [
    "TrigPoly",
    "vallee_poussin",
    "phased_poly",
    "kernel_poly",
    "convolve",
    "psi_beta_derivative",
    "zygmund_sum",
    "fejer_sum",
    "deviation",
    "sample",
    "from_samples",
]

TWO_PI = 2.0 * math.pi

# Points per block of `_jet`.  The Gauss-Jacobi panels of the degree-4095
# dual norm of build_witness(q = 4, n = 4096) take 196560 points; unblocked,
# their tables peaked at 811 MB, and in blocks of 2048 points, each block's
# tables freed before the next block's are made, the build peaks at 51 MB.
_JET_BLOCK = 2048
# `_jet` multiplies in batches of rows that keep each product under this many
# complex multiply-adds, which OpenBLAS runs on the calling thread.  Larger
# products wake its thread pool, which on a 2-vCPU host cost 8 ms per product
# at unpredictable shapes, against 0.01-0.3 ms on one thread.  A row's
# result does not depend on how many rows share its product.
_POOL_FREE_MACS = 1 << 15


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Finite trigonometric polynomial in coefficient form.

    a0 contributes a0/2 to the value; a[k-1], b[k-1] are the cosine and sine
    coefficients of the k-th harmonic.  Trailing zero pairs are permitted.
    """

    a0: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
            raise ParameterError("TrigPoly: a and b must be 1-d arrays of equal length")
        a = a.copy()
        b = b.copy()
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a0", float(self.a0))

    @property
    def degree(self) -> int:
        return self.a.size

    def __call__(self, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Exact values at the points t (any shape; a scalar gives a float), by _jet."""
        arr = np.asarray(t, dtype=float)
        (values,) = _jet(self, arr.ravel(), (0,))
        return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)

    def padded(self, degree: int) -> "TrigPoly":
        """Same polynomial with zero coefficients appended up to `degree`."""
        if degree < self.degree:
            raise ParameterError("padded: target degree below current degree")
        extra = degree - self.degree
        if extra == 0:
            return self
        pad = np.zeros(extra)
        return TrigPoly(self.a0, np.concatenate([self.a, pad]), np.concatenate([self.b, pad]))

    def truncated(self, degree: int) -> "TrigPoly":
        """Keep harmonics up to `degree` (the partial Fourier sum)."""
        d = min(degree, self.degree)
        return TrigPoly(self.a0, self.a[:d], self.b[:d])

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        d = max(self.degree, other.degree)
        p, q = self.padded(d), other.padded(d)
        return TrigPoly(p.a0 + q.a0, p.a + q.a, p.b + q.b)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "TrigPoly":
        return TrigPoly(self.a0 * scalar, self.a * scalar, self.b * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "TrigPoly":
        return self * -1.0


def _harmonics(p: TrigPoly) -> np.ndarray:
    """The complex coefficients c_k = a_k - i b_k of p, k = 1..degree."""
    return p.a - 1j * p.b


def _times(p: TrigPoly, multiplier: np.ndarray) -> TrigPoly:
    """The zero-mean polynomial whose harmonic k is p's times multiplier[k - 1]."""
    c = _harmonics(p) * multiplier
    return TrigPoly(0.0, c.real, -c.imag)


def _derivative(p: TrigPoly, order: int) -> TrigPoly:
    """The derivative of p of the given order, harmonic k times (ik)^order;
    order -1 gives the antiderivative less a0 t/2."""
    return _times(p, np.arange(1, p.degree + 1, dtype=float) ** order * 1j**order)


def _jet(p: TrigPoly, t: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    """Exact values at the points t (1-d) of derivatives of p, one array per order.

    Order -1 is the antiderivative a0 t/2 + sum (a_k sin kt - b_k cos kt)/k.
    Each sum is Re sum_k (a_k - i b_k) e^{ikt}, split as k = 1 + j + B l with
    B about sqrt(degree), so only e^{ijt} and e^{iBlt} are tabulated and the
    rest is matrix products.  The points go through in blocks of at most
    _JET_BLOCK, each block's tables freed before the next block's are made
    (`_jet_block`), so the scratch is one block's,
    O(_JET_BLOCK * len(orders) * sqrt(degree)) complex values, whatever the
    number of points.  Each block is multiplied in batches of rows small
    enough to stay off the BLAS thread pool (_POOL_FREE_MACS), below degree
    16000 or so.  A point's values do not depend on how the points are
    split.
    """
    d = p.degree
    width = math.isqrt(d) + 1
    rows = -(-d // width)
    coef = np.zeros((len(orders) * rows, width), dtype=complex)
    for i, r in enumerate(orders):
        coef[i * rows : (i + 1) * rows].flat[:d] = _harmonics(_derivative(p, r))
    fit = _POOL_FREE_MACS // max(coef.size, 1)
    batch = min(fit, _JET_BLOCK) if fit >= 2 else 0
    sums = np.empty((len(orders), t.size))
    for start in range(0, t.size, _JET_BLOCK):
        tb = t[start : start + _JET_BLOCK]
        # Rows per product: `batch`, or the whole block past degree 16000 or
        # so, where even two rows exceed _POOL_FREE_MACS and one product per
        # block wakes the pool the fewest times.  At least two, padded with
        # t = 0, unless t is one point: one row is a matrix-vector product,
        # whose rounding differs.
        per = 1 if t.size == 1 else max(batch or tb.size, 2)
        sums[:, start : start + tb.size] = _jet_block(tb, coef, per, len(orders))
    constant = {-1: 0.5 * p.a0 * t, 0: 0.5 * p.a0}
    return [sums[j] + constant.get(r, 0.0) for j, r in enumerate(orders)]


def _jet_block(t: np.ndarray, coef: np.ndarray, per: int, count: int) -> np.ndarray:
    """The `count` sums of `_jet` at the points t of one block, from the
    (count * rows, width) table coef, `per` rows to a product.  Each table
    is freed once used, and all of them on return, so a block's scratch is
    gone before the next block's is made."""
    rows, width = coef.shape[0] // count, coef.shape[1]
    tp = np.pad(t, (0, -t.size % per))
    products = np.exp(1j * np.multiply.outer(tp, np.arange(width))).reshape(-1, per, width) @ coef.T
    products = products.reshape(tp.size, count, rows)[: t.size]
    outer = np.exp(1j * np.multiply.outer(t, width * np.arange(rows) + 1.0))
    return np.einsum("nrl,nl->rn", products, outer).real


def max_coeff_diff(p: TrigPoly, q: TrigPoly) -> float:
    """The largest absolute coefficient of p - q."""
    d = p - q
    return float(np.max(np.abs(np.concatenate(([d.a0], d.a, d.b)))))


# ---------------------------------------------------------------------------
# The Vallée-Poussin kernel
# ---------------------------------------------------------------------------

def vallee_poussin(m: int) -> TrigPoly:
    """Vallée-Poussin kernel of order m, in explicit coefficient form.

    V_m(t) = D_m(t) + 2 * sum_{k=m+1}^{2m-1} (1 - k/(2m)) cos(kt); its degree
    is 2m - 1 and the first m cosine coefficients are all 1.
    """
    if m < 1:
        raise ParameterError("vallee_poussin: requires m >= 1")
    deg = 2 * m - 1
    a = np.zeros(deg)
    a[:m] = 1.0
    k = np.arange(m + 1, 2 * m, dtype=float)
    a[m:] = 2.0 * (1.0 - k / (2.0 * m))
    return TrigPoly(a0=1.0, a=a, b=np.zeros(deg))


# ---------------------------------------------------------------------------
# The kernel Psi_beta of a decay profile, and convolution with it
# ---------------------------------------------------------------------------

def phased_poly(amp: np.ndarray, beta: float, first_k: int = 1) -> TrigPoly:
    """sum_k amp[k - first_k] cos(kt - beta*pi/2) over k >= first_k, as a TrigPoly.

    The harmonics of the kernel Psi_beta have this form, and so does every
    polynomial built from them; harmonics below first_k are zero.  At
    integer beta the phase is a quadrant, whose cosine and sine are taken
    exactly, so a sine kernel (odd beta) has a = 0 and a cosine kernel b = 0.
    """
    if first_k < 1:
        raise ParameterError("phased_poly: requires first_k >= 1")
    amp = np.asarray(amp, dtype=float)
    if float(beta).is_integer():
        cos, sin = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[int(beta) % 4]
    else:
        cos, sin = math.cos(beta * math.pi / 2.0), math.sin(beta * math.pi / 2.0)
    # Filled in place: building a and b with np.concatenate raised the peak
    # RSS of the q = 4 majorant run by 2 MB (0.8%).
    a = np.zeros(first_k - 1 + amp.size)
    b = np.zeros_like(a)
    a[first_k - 1 :] = amp * cos
    b[first_k - 1 :] = amp * sin
    return TrigPoly(0.0, a, b)


def kernel_poly(psi: PsiFunction, beta: float, last_k: int, first_k: int = 1) -> TrigPoly:
    """psi(k) cos(kt - beta*pi/2) for k = first_k..last_k: those harmonics
    of the kernel Psi_beta, as a TrigPoly with zeros below first_k."""
    return phased_poly(psi(np.arange(first_k, last_k + 1, dtype=float)), beta, first_k)


def convolve(psi: PsiFunction, beta: float, phi: TrigPoly) -> TrigPoly:
    """Periodic convolution (1/pi) * integral of Psi_beta(x - t) * phi(t) dt
    with the kernel Psi_beta(t) = sum_k psi(k) cos(kt - beta*pi/2).

    By orthogonality it is a Fourier multiplier: harmonic k of phi is
    multiplied by the kernel's, psi(k) e^{-i beta pi/2}, so psi(k) is read
    only for k up to the degree of phi, and no kernel tail enters.  The sign
    convention is frozen by the quadrature oracle in the test suite (a grid
    evaluation of the defining integral), so the rotation direction cannot
    silently flip.
    """
    if phi.a0 != 0.0:
        raise ParameterError("convolve: phi must have zero mean (a0 = 0)")
    return _times(phi, _harmonics(kernel_poly(psi, beta, phi.degree)))


def psi_beta_derivative(f: TrigPoly, psi: PsiFunction, beta: float) -> TrigPoly:
    """Inverse of `convolve` on the zero-mean part of f.

    Divides each harmonic by the kernel's, psi(k) e^{-i beta pi/2}; the
    constant term of f is not part of the convolution and is dropped
    (callers carry a0 separately).  Raises when a needed psi(k) underflows.
    """
    kernel = _harmonics(kernel_poly(psi, beta, f.degree))
    if np.any(np.abs(kernel) < 1.0e-300):
        raise ParameterError("psi_beta_derivative: psi(k) underflow, inversion ill-posed")
    return _times(f, 1.0 / kernel)


# ---------------------------------------------------------------------------
# Summation operators
# ---------------------------------------------------------------------------

def _deviation_factor(n: int, s: float, degree: int) -> np.ndarray:
    """lambda_k = min(k/n, 1)**s for k = 1..degree: Z scales harmonic k by 1 - lambda_k."""
    if n < 1:
        raise ParameterError("Zygmund mean: requires n >= 1")
    if not (s > 0.0):
        raise ParameterError("Zygmund mean: requires s > 0")
    k = np.arange(1, degree + 1, dtype=float)
    return np.minimum(k / n, 1.0) ** s


def zygmund_sum(f: TrigPoly, n: int, s: float) -> TrigPoly:
    """Zygmund mean: harmonic k < n scaled by 1 - (k/n)**s, the rest dropped.

    The result has degree min(n - 1, f.degree); the constant term passes
    through unchanged.  s = 1 reproduces the Fejér mean.
    """
    d = min(n - 1, f.degree)
    factor = 1.0 - _deviation_factor(n, s, d)
    return TrigPoly(f.a0, f.a[:d] * factor, f.b[:d] * factor)


def fejer_sum(f: TrigPoly, n: int) -> TrigPoly:
    """Fejér mean, the s = 1 Zygmund mean."""
    return zygmund_sum(f, n, 1.0)


def deviation(f: TrigPoly, n: int, s: float) -> TrigPoly:
    """f - Z(f), exactly: harmonic k scaled by min(k/n, 1)**s, the constant dropped.

    Harmonics k >= n pass through bitwise unchanged.  This is the one place
    where the deviation of the Zygmund mean is formed.
    """
    lam = _deviation_factor(n, s, f.degree)
    return TrigPoly(0.0, f.a * lam, f.b * lam)


# ---------------------------------------------------------------------------
# Uniform sampling
# ---------------------------------------------------------------------------

def sample(p: TrigPoly, m: int, offset: float = 0.0) -> np.ndarray:
    """Values of p at the M uniform nodes t_j = 2 pi (j + offset)/M, exactly,
    as a fresh float64 array: one M-point inverse FFT of the (degree + 1)-entry
    half spectrum, which irfft zero-pads.

    A nonzero offset is p(t + 2 pi offset/M) on the nodes 2 pi j/M: the half
    spectrum is rotated in place by e^{2 pi i k offset/M}, k = 0 included
    (numpy may round a one-entry product in place unlike out of place), so
    the peak memory is the transform's, as at offset 0.

    Requires M >= 2*degree + 2 so every harmonic sits strictly below the
    Nyquist index.
    """
    if m < 2 or m & (m - 1):
        raise ParameterError("sample: M must be a power of two >= 2")
    if m < 2 * p.degree + 2:
        raise ParameterError("sample: M must be at least 2*degree + 2")
    half = np.empty(p.degree + 1, dtype=complex)
    half[0] = 0.5 * p.a0 * m
    np.multiply(p.a, 0.5 * m, out=half[1:].real)
    np.multiply(p.b, -0.5 * m, out=half[1:].imag)
    if offset:
        half *= np.exp(1j * (TWO_PI * offset / m) * np.arange(p.degree + 1))
    return np.fft.irfft(half, n=m)


def _next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 16)."""
    return 1 << max(4, (n - 1).bit_length())


def from_samples(values: np.ndarray, degree: int | None = None) -> TrigPoly:
    """Recover coefficients from the values at M uniform nodes, M a power of
    two >= 2 (inverse of `sample`)."""
    values = np.asarray(values, dtype=float)
    m = values.size
    if values.ndim != 1 or m < 2 or m & (m - 1):
        raise ParameterError("from_samples: values must be 1-d, of power-of-two length >= 2")
    if degree is None:
        degree = m // 2 - 1
    if degree > m // 2 - 1:
        raise ParameterError("from_samples: degree exceeds what M samples determine")
    spectrum = np.fft.rfft(values)
    a0 = 2.0 * spectrum[0].real / m
    a = 2.0 * spectrum[1 : degree + 1].real / m
    b = -2.0 * spectrum[1 : degree + 1].imag / m
    return TrigPoly(a0, a, b)
