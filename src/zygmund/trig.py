"""Trigonometric polynomial algebra, classical kernels, and summation operators.

Everything here works on the finite cosine/sine coefficient form

    p(t) = a0/2 + sum_{k=1}^{d} (a_k cos kt + b_k sin kt),

which is the universal computational object of the library: convolution
kernels, Zygmund and Fejér means, and the deviation f - Z(f) are all exact
coefficient manipulations on it.

`sample` evaluates p on M uniform nodes by one inverse FFT and returns a
fresh array that the caller owns; `from_samples` reads such an array back
into coefficients.  Off that grid there is one evaluator, `_jet`: exact
values of p and of its derivatives at any points, in
O(points * sqrt(degree)) memory; `TrigPoly.__call__` is its order 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .decay import PsiFunction
from .errors import AliasingError, ConvergenceError, IllPosedError, ParameterError

__all__ = [
    "TrigPoly",
    "dirichlet",
    "dirichlet_closed",
    "vallee_poussin",
    "vallee_poussin_by_averaging",
    "phased_poly",
    "KernelSpec",
    "kernel_poly",
    "panel_integral",
    "convolve",
    "psi_beta_derivative",
    "zygmund_sum",
    "fejer_sum",
    "deviation",
    "deviation_coeffs",
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

    @classmethod
    def constant(cls, a0: float) -> "TrigPoly":
        return cls(a0=a0, a=np.zeros(0), b=np.zeros(0))

    @classmethod
    def zero(cls, degree: int = 0) -> "TrigPoly":
        return cls(a0=0.0, a=np.zeros(degree), b=np.zeros(degree))

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
# Classical kernels
# ---------------------------------------------------------------------------

def dirichlet(k: int) -> TrigPoly:
    """Dirichlet kernel D_k(t) = 1/2 + sum_{v=1}^{k} cos(vt) in coefficient form."""
    if k < 1:
        raise ParameterError("dirichlet: requires k >= 1")
    return TrigPoly(a0=1.0, a=np.ones(k), b=np.zeros(k))


def dirichlet_closed(k: int, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Closed form sin((k + 1/2) t) / (2 sin(t/2)).

    Near the removable singularities t in 2*pi*Z (|sin(t/2)| < 1e-8) the
    coefficient series is evaluated instead.
    """
    if k < 1:
        raise ParameterError("dirichlet_closed: requires k >= 1")
    arr = np.asarray(t, dtype=float)
    half_sin = np.sin(arr / 2.0)
    near = np.abs(half_sin) < 1.0e-8
    out = np.asarray(np.sin((k + 0.5) * arr) / (2.0 * np.where(near, 1.0, half_sin)))
    out[near] = dirichlet(k)(arr[near])
    return float(out) if arr.ndim == 0 else out


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


def vallee_poussin_by_averaging(m: int) -> TrigPoly:
    """Defining form (1/m) * sum_{k=m}^{2m-1} D_k(t); identical to
    vallee_poussin(m) up to rounding."""
    if m < 1:
        raise ParameterError("vallee_poussin_by_averaging: requires m >= 1")
    acc = TrigPoly.zero(2 * m - 1)
    for k in range(m, 2 * m):
        acc = acc + dirichlet(k).padded(2 * m - 1)
    return (1.0 / m) * acc


# ---------------------------------------------------------------------------
# Convolution kernels built from a decay profile
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


@dataclass(frozen=True)
class KernelSpec:
    """Truncated convolution kernel sum_{k=1}^{length} psi(k) cos(kt - beta*pi/2)."""

    psi: PsiFunction
    beta: float
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ParameterError("KernelSpec: requires length >= 1")
        if not math.isfinite(self.beta):
            raise ParameterError("KernelSpec: beta must be finite")

    @property
    def phase(self) -> float:
        return self.beta * math.pi / 2.0

    def coefficients(self, upto: int) -> np.ndarray:
        """psi(k) for k = 1..upto (upto may not exceed the truncation)."""
        if upto > self.length:
            raise ParameterError("KernelSpec: requested harmonics beyond truncation")
        k = np.arange(1, upto + 1, dtype=float)
        return np.asarray(self.psi(k), dtype=float)


def kernel_poly(kernel: KernelSpec) -> Tuple[TrigPoly, float]:
    """Realize the truncated kernel and estimate the dropped tail.

    Returns (poly, tail_sup) where poly has coefficients
    a_k = psi(k) cos(beta*pi/2), b_k = psi(k) sin(beta*pi/2) for k up to the
    truncation, and tail_sup estimates sum_{k > length} psi(k) by direct
    summation plus an integral remainder.  The sup estimate is infinite when
    the coefficient series diverges (decay exponent <= 1).
    """
    poly = phased_poly(kernel.coefficients(kernel.length), kernel.beta)
    return poly, coefficient_tail_sum(kernel.psi, kernel.length + 1)


def coefficient_tail_sum(psi: PsiFunction, first: int, power: float = 1.0) -> float:
    """Estimate sum_{k >= first} psi(k)**power.

    Direct summation of the first 8192 terms, then the midpoint-corrected
    remainder: for a smooth decreasing summand, sum_{k >= K} h(k) is the
    midpoint rule for the integral of h from K' = K - 1/2 to infinity.  With
    a = power * r - 1, r the decay exponent, the remainder is integrated in
    x = (t/K')**(-a), which maps [K', inf) onto (0, 1] and turns a pure
    power into the constant K'**(1 - power*r) / a, so its remainder is
    exact.  panel_integral takes it on panels graded geometrically toward
    x = 0, down to x_cap = 2**-64 or to log t = 600, whichever comes
    first.  On (0, x_cap] the integrand is continued as a quadratic in log x
    through its values at x_cap, 2 x_cap and 4 x_cap and integrated in
    closed form; for a pure power this is the exact constant.  Divergent cases
    (power * decay exponent <= 1) return inf.
    """
    if power * psi.decay_exponent <= 1.0 + 1.0e-12:
        return math.inf

    k_end = first + 8192
    ks = np.arange(first, k_end, dtype=float)
    direct = float(np.sum(np.exp(power * psi.log_value(ks))))

    a = power * psi.decay_exponent - 1.0
    k0 = k_end - 0.5
    halvings = max(0, min(64, math.floor(a * (_LOG_T_CAP - math.log(k0)) / math.log(2.0))))

    def log_integrand(x: np.ndarray) -> np.ndarray:
        # t = k0 * x**(-1/a), dt = t / (a x) dx
        log_t = math.log(k0) - np.log(x) / a
        return power * psi.log_value(np.exp(log_t)) + log_t - math.log(a) - np.log(x)

    edges = 2.0 ** -np.arange(halvings, -1, -1)
    # int_0^x_cap: with s = log(x_cap/x), dx = x_cap e^-s ds, so a quadratic
    # h(s) gives x_cap (h + h' + h'') at s = 0, read off the values at x_cap,
    # 2 x_cap and 4 x_cap.  A pure power makes h constant; below two halvings
    # it is taken as constant.
    x_cap = 2.0 ** -halvings
    if halvings < 2:
        beyond = x_cap * math.exp(float(log_integrand(np.array([x_cap]))[0]))
    else:
        h0, h1, h2 = np.exp(log_integrand(x_cap * np.array([1.0, 2.0, 4.0])))
        d = math.log(2.0)
        beyond = x_cap * (h0 + (3.0 * h0 - 4.0 * h1 + h2) / (2.0 * d) + (h0 - 2.0 * h1 + h2) / d**2)
    return direct + panel_integral(log_integrand, edges) + beyond


# Largest log t at which a tail integrand is evaluated; exp stays finite.
_LOG_T_CAP = 600.0


@functools.cache
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point rule on [-1, 1], built on first use:
    importing numpy.polynomial would add to every command's start-up."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(32)


def panel_integral(log_f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> float:
    """Integral of exp(log_f(x)) over [edges[0], edges[-1]].

    A 32-point Gauss-Legendre rule runs on every panel between consecutive
    edges, and every panel is halved until two sums agree to 1e-13
    relative; log_f takes an array of nodes.  Raises ConvergenceError when
    the sums still differ at 2**15 panels.
    """
    nodes, weights = _gauss_legendre()
    edges = np.asarray(edges, dtype=float)
    prev = math.nan
    while edges.size - 1 <= 2**15:
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        values = np.exp(log_f(mid[:, None] + half[:, None] * nodes))
        value = float(np.sum(half * (values @ weights)))
        if abs(value - prev) <= 1.0e-13 * abs(value):
            return value
        prev = value
        halved = np.empty(2 * edges.size - 1)
        halved[0::2] = edges
        halved[1::2] = mid
        edges = halved
    raise ConvergenceError("panel_integral: panel sums did not agree")


# ---------------------------------------------------------------------------
# Convolution and its inverse
# ---------------------------------------------------------------------------

def convolve(kernel: KernelSpec, phi: TrigPoly) -> TrigPoly:
    """Periodic convolution (1/pi) * integral of kernel(x - t) * phi(t) dt.

    By orthogonality the k-th harmonic of phi, written (alpha_k, gamma_k),
    maps to psi(k) times the pair rotated by +beta*pi/2:

        a_k = psi(k) * (alpha_k cos(beta*pi/2) - gamma_k sin(beta*pi/2))
        b_k = psi(k) * (alpha_k sin(beta*pi/2) + gamma_k cos(beta*pi/2))

    The sign convention is frozen by the quadrature oracle in the test suite
    (a grid evaluation of the defining integral), so the rotation direction
    cannot silently flip.
    """
    if phi.a0 != 0.0:
        raise ParameterError("convolve: phi must have zero mean (a0 = 0)")
    d = phi.degree
    if kernel.length < d:
        raise ParameterError("convolve: kernel truncation below phi degree")
    if d == 0:
        return TrigPoly.zero()
    psi_k = kernel.coefficients(d)
    c, s = math.cos(kernel.phase), math.sin(kernel.phase)
    a = psi_k * (phi.a * c - phi.b * s)
    b = psi_k * (phi.a * s + phi.b * c)
    return TrigPoly(0.0, a, b)


def psi_beta_derivative(f: TrigPoly, kernel: KernelSpec) -> TrigPoly:
    """Inverse of `convolve` on the zero-mean part of f.

    Divides each harmonic by psi(k) and rotates the phase back; the constant
    term of f is not part of the convolution and is dropped (callers carry
    a0 separately).  Raises when a needed psi(k) underflows.
    """
    d = f.degree
    if kernel.length < d:
        raise ParameterError("psi_beta_derivative: kernel truncation below f degree")
    if d == 0:
        return TrigPoly.zero()
    psi_k = kernel.coefficients(d)
    if np.any(psi_k < 1.0e-300):
        raise IllPosedError("psi_beta_derivative: psi(k) underflow, inversion ill-posed")
    c, s = math.cos(kernel.phase), math.sin(kernel.phase)
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


def deviation_coeffs(phi: TrigPoly, kernel: KernelSpec, n: int, s: float) -> TrigPoly:
    """Exact coefficient form of f - Z(f) for f = convolve(kernel, phi).

    Because phi is a polynomial this is exact: no kernel tail is involved.
    """
    if kernel.length < max(phi.degree, n):
        raise ParameterError("deviation_coeffs: kernel truncation below max(degree, n)")
    return deviation(convolve(kernel, phi), n, s)


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
