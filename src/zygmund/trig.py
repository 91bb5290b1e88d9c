"""Trigonometric polynomial algebra, the Vallée-Poussin kernel, and summation operators.

Everything here works on the finite cosine/sine coefficient form

    p(t) = a0/2 + sum_{k=1}^{d} (a_k cos kt + b_k sin kt),

which is the universal computational object of the library: convolution
kernels, Zygmund and Fejér means, and the deviation f - Z(f) are all exact
coefficient manipulations on it.  Convolving a polynomial phi with the
kernel Psi_beta of a profile psi reads psi(1..degree of phi) and the phase
beta*pi/2 and nothing else, so `convolve` and its inverse
`psi_beta_derivative` take (psi, beta) and need no kernel length.

`sample` evaluates p on M uniform nodes by one inverse FFT and returns a
fresh array that the caller owns; `from_samples` reads such an array back
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
from .errors import AliasingError, IllPosedError, ParameterError

__all__ = [
    "TrigPoly",
    "vallee_poussin",
    "phased_poly",
    "convolve",
    "psi_beta_derivative",
    "zygmund_sum",
    "fejer_sum",
    "deviation",
    "sample",
    "from_samples",
]

TWO_PI = 2.0 * math.pi


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


def _derivative(p: TrigPoly, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine coefficients of the derivative of p of the given
    order; order -1 gives those of the antiderivative less a0 t/2."""
    k = np.arange(1, p.degree + 1, dtype=float) ** order
    a, b = k * p.a, k * p.b
    for _ in range(order % 4):
        a, b = b, -a
    return a, b


def _jet(p: TrigPoly, t: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    """Exact values at the points t (1-d) of derivatives of p, one array per order.

    Order -1 is the antiderivative a0 t/2 + sum (a_k sin kt - b_k cos kt)/k.
    Each sum is Re sum_k (a_k - i b_k) e^{ikt}, split as k = 1 + j + B l with
    B about sqrt(degree), so only e^{ijt} and e^{iBlt} are tabulated and the
    rest is one matrix product.
    """
    d = p.degree
    width = math.isqrt(d) + 1
    rows = -(-d // width)
    coef = np.zeros((len(orders) * rows, width), dtype=complex)
    for i, r in enumerate(orders):
        a, b = _derivative(p, r)
        coef[i * rows : (i + 1) * rows].flat[:d] = a - 1j * b
    inner = np.exp(1j * np.multiply.outer(t, np.arange(width)))
    outer = np.exp(1j * np.multiply.outer(t, width * np.arange(rows) + 1.0))
    blocks = (inner @ coef.T).reshape(t.size, len(orders), rows)
    sums = np.einsum("nrl,nl->rn", blocks, outer).real
    constant = {-1: 0.5 * p.a0 * t, 0: 0.5 * p.a0}
    return [sums[j] + constant.get(r, 0.0) for j, r in enumerate(orders)]


def max_coeff_diff(p: TrigPoly, q: TrigPoly) -> float:
    d = max(p.degree, q.degree)
    pp, qq = p.padded(d), q.padded(d)
    gap = abs(pp.a0 - qq.a0)
    if d:
        gap = max(
            gap,
            float(np.max(np.abs(pp.a - qq.a))),
            float(np.max(np.abs(pp.b - qq.b))),
        )
    return gap


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
    polynomial built from them; harmonics below first_k are zero.
    """
    if first_k < 1:
        raise ParameterError("phased_poly: requires first_k >= 1")
    amp = np.asarray(amp, dtype=float)
    phase = beta * math.pi / 2.0
    # Filled in place: building a and b with np.concatenate raised the peak
    # RSS of the q = 4 majorant run by 2 MB (0.8%).
    a = np.zeros(first_k - 1 + amp.size)
    b = np.zeros_like(a)
    a[first_k - 1 :] = amp * math.cos(phase)
    b[first_k - 1 :] = amp * math.sin(phase)
    return TrigPoly(0.0, a, b)


def _kernel_harmonics(psi: PsiFunction, beta: float, degree: int) -> tuple[np.ndarray, float, float]:
    """psi(k) for k = 1..degree, and the cosine and sine of the phase beta*pi/2."""
    k = np.arange(1, degree + 1, dtype=float)
    phase = beta * math.pi / 2.0
    return np.asarray(psi(k), dtype=float), math.cos(phase), math.sin(phase)


def convolve(psi: PsiFunction, beta: float, phi: TrigPoly) -> TrigPoly:
    """Periodic convolution (1/pi) * integral of Psi_beta(x - t) * phi(t) dt
    with the kernel Psi_beta(t) = sum_k psi(k) cos(kt - beta*pi/2).

    By orthogonality the k-th harmonic of phi, written (alpha_k, gamma_k),
    maps to psi(k) times the pair rotated by +beta*pi/2:

        a_k = psi(k) * (alpha_k cos(beta*pi/2) - gamma_k sin(beta*pi/2))
        b_k = psi(k) * (alpha_k sin(beta*pi/2) + gamma_k cos(beta*pi/2))

    so psi(k) is read only for k up to the degree of phi, and no kernel tail
    enters.  The sign convention is frozen by the quadrature oracle in the
    test suite (a grid evaluation of the defining integral), so the rotation
    direction cannot silently flip.
    """
    if phi.a0 != 0.0:
        raise ParameterError("convolve: phi must have zero mean (a0 = 0)")
    psi_k, c, s = _kernel_harmonics(psi, beta, phi.degree)
    a = psi_k * (phi.a * c - phi.b * s)
    b = psi_k * (phi.a * s + phi.b * c)
    return TrigPoly(0.0, a, b)


def psi_beta_derivative(f: TrigPoly, psi: PsiFunction, beta: float) -> TrigPoly:
    """Inverse of `convolve` on the zero-mean part of f.

    Divides each harmonic by psi(k) and rotates the phase back; the constant
    term of f is not part of the convolution and is dropped (callers carry
    a0 separately).  Raises when a needed psi(k) underflows.
    """
    psi_k, c, s = _kernel_harmonics(psi, beta, f.degree)
    if np.any(psi_k < 1.0e-300):
        raise IllPosedError("psi_beta_derivative: psi(k) underflow, inversion ill-posed")
    alpha = (f.a * c + f.b * s) / psi_k
    gamma = (-f.a * s + f.b * c) / psi_k
    return TrigPoly(0.0, alpha, gamma)


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

def sample(p: TrigPoly, m: int) -> np.ndarray:
    """Values of p at the M uniform nodes t_j = 2 pi j/M, exactly, as a fresh
    float64 array: one M-point inverse FFT of the (degree + 1)-entry half
    spectrum, which irfft zero-pads.

    Requires M >= 2*degree + 2 so every harmonic sits strictly below the
    Nyquist index.
    """
    if m < 2 or m & (m - 1):
        raise ParameterError("sample: M must be a power of two >= 2")
    if m < 2 * p.degree + 2:
        raise AliasingError("sample: M must be at least 2*degree + 2")
    return np.fft.irfft(_half_spectrum(p, m), n=m)


def _next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 16)."""
    return 1 << max(4, (n - 1).bit_length())


def _half_spectrum(p: TrigPoly, n: int) -> np.ndarray:
    """Harmonics 0..degree of p's half spectrum, scaled for n-point inverse FFTs."""
    half = np.empty(p.degree + 1, dtype=complex)
    half[0] = 0.5 * p.a0 * n
    np.multiply(p.a, 0.5 * n, out=half[1:].real)
    np.multiply(p.b, -0.5 * n, out=half[1:].imag)
    return half


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
        raise AliasingError("from_samples: degree exceeds what M samples determine")
    spectrum = np.fft.rfft(values)
    a0 = 2.0 * spectrum[0].real / m
    a = 2.0 * spectrum[1 : degree + 1].real / m
    b = -2.0 * spectrum[1 : degree + 1].imag / m
    return TrigPoly(a0, a, b)
