"""Extremal witness machinery for lower bounds on the class deviation.

The witness is built from the Vallée-Poussin kernel: the source function
phi = alpha0 * (V_n - 1/2) is calibrated to unit L_1 norm, its convolution
with the kernel gives an explicit class member f of degree 2n - 1, and
pairing the deviation f - Z(f) against a dual test polynomial produces, via
Hölder's inequality, a computable lower bound on ||f - Z(f)||_q and hence on
the class-level deviation.

The calibration ||V_n - 1/2||_1 is exact and samples nothing: the closed
form V_n - 1/2 = g / (2n(1 - cos t)), g a sum of four harmonics, puts every
sign change in a window of length O(n^(-1/2)), where the q = 1 screen of
`norms` brackets them from g at O(1) per point, and the antiderivative is
evaluated at those O(sqrt n) zeros only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .decay import MethodParams, PsiFunction, growth_function
from .errors import ParameterError, ZygmundError
from .norms import _ROOT_OVERSAMPLE, NormRequest, _screen_bounds, _screened_zeros, lq_norm
from .trig import (
    TrigPoly, _jet, _next_pow2, convolve, deviation, max_coeff_diff, phased_poly, sample, vallee_poussin
)

__all__ = [
    "WitnessResult",
    "vp_pulse",
    "calibrate_alpha0",
    "build_witness",
    "dual_test_poly",
]


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """Calibrated witness with both values of its pairing and a certified lower bound.

    lower_bound is the Hölder quotient I / ||dual||_{q'}, which never exceeds
    the measured deviation ||f - Z(f)||_q.  pairing is the closed-form value
    of the pairing integral I, and pairing_quadrature the rectangle-rule value
    it was checked against.  dual is the test polynomial of degree n - 1
    paired against.
    """

    alpha0: float
    phi: TrigPoly
    f: TrigPoly
    dual: TrigPoly
    pairing: float
    pairing_quadrature: float
    lower_bound: float
    deviation: float


def vp_pulse(n: int) -> TrigPoly:
    """V_n - 1/2: pure cosine polynomial of degree 2n - 1 with zero mean.

    Coefficients are 1 for k <= n and 2(1 - k/(2n)) for n < k <= 2n - 1.
    """
    if n < 1:
        raise ParameterError("vp_pulse: requires n >= 1")
    kernel = vallee_poussin(n)
    return TrigPoly(0.0, kernel.a, kernel.b)


def _pulse_numerator(n: int, t: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    """Values at the points t of the derivatives of the given orders (0, 1
    or 2) of g(t) = cos nt - cos 2nt - n(1 - cos t).

    V_n = 2 F_2n - F_n with F_m(t) = sin^2(mt/2) / (2m sin^2(t/2)) the Fejér
    kernels, so V_n(t) - 1/2 = g(t) / (2n(1 - cos t)), which has the sign of
    g on (0, pi].
    """
    nt = n * t
    forms = {
        0: lambda: np.cos(nt) - np.cos(2.0 * nt) - 2.0 * n * np.sin(t / 2.0) ** 2,
        1: lambda: n * (2.0 * np.sin(2.0 * nt) - np.sin(nt) - np.sin(t)),
        2: lambda: n * (4.0 * n * np.cos(2.0 * nt) - n * np.cos(nt) - np.cos(t)),
    }
    return [forms[r]() for r in orders]


def _pulse_zeros(n: int) -> np.ndarray:
    """Sorted sign changes of V_n - 1/2 in (0, pi), found as those of g.

    They all lie in [pi/(3n), t*], t* = 2 arcsin(n^(-1/2)): above t*,
    |V_n| <= 1/(2n sin^2(t/2)) <= 1/2, and below pi/(3n), sin x >= 2x/pi
    gives g >= n t^2 (6n/pi^2 - 1/2) > 0.  That window, O(n^(-1/2)) long, is
    cut into cells of _ROOT_OVERSAMPLE per period of g's top harmonic 2n,
    on which `_screened_zeros` brackets and refines the sign changes of g
    from its closed form, at O(1) per point.
    """
    start = math.pi / (3 * n)
    stop = 2.0 * math.asin(n ** -0.5)
    m = math.ceil(_ROOT_OVERSAMPLE * 2 * n * (stop - start) / (2.0 * math.pi))
    w = (stop - start) / m
    jet = functools.partial(_pulse_numerator, n)
    closed = jet(start + w * np.arange(m + 1), (0, 1, 2))
    # g = -n + n cos t + cos nt - cos 2nt
    bounds = _screen_bounds(float(n), np.array([1.0, n, 2.0 * n]), np.array([float(n), 1.0, 1.0]))
    return _screened_zeros(jet, start, w, closed, bounds)


@functools.lru_cache(maxsize=64)
def _pulse_l1(n: int) -> float:
    """||V_n - 1/2||_1, exact up to rounding.

    V_n - 1/2 is even, so the norm is 2 sum |P(z_{i+1}) - P(z_i)| over
    0 = z_0 < z_1 < ... < pi, with z_i its sign changes between
    (_pulse_zeros) and P its antiderivative sum a_k sin(kt)/k, which is 0
    at 0 and pi.
    """
    (antiderivative,) = _jet(vp_pulse(n), _pulse_zeros(n), (-1,))
    return 2.0 * float(np.sum(np.abs(np.diff(antiderivative, prepend=0.0, append=0.0))))


def calibrate_alpha0(n: int) -> float:
    """Scale 1 / ||V_n - 1/2||_1 making the witness source a unit-ball member.

    Sharper than any fixed absolute constant: the L_1 norm is exact up to
    rounding (_pulse_l1), so ||alpha0 * (V_n - 1/2)||_1 = 1.
    """
    if n < 1:
        raise ParameterError("calibrate_alpha0: requires n >= 1")
    return 1.0 / _pulse_l1(n)


def _witness_direct(psi: PsiFunction, method: MethodParams, n: int, alpha0: float) -> TrigPoly:
    """Witness coefficients written out directly from the kernel expansion."""
    k = np.arange(1, 2 * n, dtype=float)
    amp = alpha0 * np.asarray(psi(k), dtype=float) * vp_pulse(n).a
    return phased_poly(amp, method.beta)


def build_witness(psi: PsiFunction, method: MethodParams, n: int) -> WitnessResult:
    """Assemble the calibrated witness of order n >= 2 (the dual has degree
    n - 1, so n = 1 has none) and certify its internal consistency.

    The witness f is written directly from the expanded coefficient form and
    cross-checked against convolve(psi, beta, phi); disagreement beyond 1e-10
    signals a sign-convention bug and raises.  The measured deviation is
    ||f - Z(f)||_q.  The pairing I of f - Z(f) against the dual is taken
    twice: in closed form by cosine orthogonality,
    alpha0 * pi / n**s * sum_{k<n} g(k)**q / k, and by the rectangle rule on
    the m = max(1024, next power of two >= 6n + 2) nodes of `sample`, which
    is exact once the grid exceeds the combined bandwidth.  The two values
    must agree to 1e-8 relative, or the orthogonality bookkeeping is broken.
    The certified Hölder lower bound is checked against the deviation
    before returning.  Each failed check raises ZygmundError.
    """
    if n < 2:
        raise ParameterError("build_witness: requires n >= 2")
    alpha0 = calibrate_alpha0(n)
    phi = alpha0 * vp_pulse(n)
    f = _witness_direct(psi, method, n, alpha0)

    gap = max_coeff_diff(f, convolve(psi, method.beta, phi))
    if gap > 1.0e-10:
        raise ZygmundError(f"build_witness: direct expansion and convolution disagree by {gap:.3e}")

    dev_poly = deviation(f, n, method.s)
    dev = lq_norm(dev_poly, NormRequest(q=method.q))
    k = np.arange(1, n, dtype=float)
    g = np.asarray(growth_function(psi, method, k), dtype=float)
    pairing = alpha0 * math.pi / n ** method.s * float(np.sum(g ** method.q / k))
    dual = dual_test_poly(method, g)
    grid_m = max(1024, _next_pow2(6 * n + 2))
    quadrature = float(2.0 * math.pi / grid_m * np.sum(sample(dev_poly, grid_m) * sample(dual, grid_m)))
    if abs(pairing - quadrature) > 1.0e-8 * max(1.0, abs(pairing)):
        raise ZygmundError(f"build_witness: pairing closed form {pairing} vs quadrature {quadrature}")

    lower = pairing / lq_norm(dual, NormRequest(q=method.q_prime))
    if lower > dev + 1.0e-9:
        raise ZygmundError(f"build_witness: Hölder lower bound {lower} exceeds deviation {dev}")
    return WitnessResult(
        alpha0=alpha0,
        phi=phi,
        f=f,
        dual=dual,
        pairing=pairing,
        pairing_quadrature=quadrature,
        lower_bound=lower,
        deviation=dev,
    )


def dual_test_poly(method: MethodParams, g: np.ndarray) -> TrigPoly:
    """Test polynomial of degree n - 1 pairing against the deviation.

    The k-th amplitude is g(k)**(q-1) / k**(1/q), with the same phase
    rotation beta*pi/2 as the kernel; g holds the composite growth function
    at k = 1..n - 1, which `build_witness` also pairs in closed form.
    """
    k = np.arange(1, g.size + 1, dtype=float)
    return phased_poly(g ** (method.q - 1.0) / k ** (1.0 / method.q), method.beta)
