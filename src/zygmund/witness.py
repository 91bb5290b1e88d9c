"""Extremal witness machinery for lower bounds on the class deviation.

The witness is built from the Vallée-Poussin kernel: the source function
phi = alpha0 * (V_n - 1/2) is calibrated to unit L_1 norm, its convolution
with the kernel gives an explicit class member f of degree 2n - 1, and
pairing the deviation f - Z(f) against a dual test polynomial produces, via
Hölder's inequality, a computable lower bound on ||f - Z(f)||_q and hence on
the class-level deviation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .decay import MethodParams, PsiFunction, growth_function
from .errors import CoefficientMismatchError, ParameterError, ZygmundError
from .norms import NormRequest, l1_norm, lq_norm
from .trig import (
    TrigPoly, _next_pow2, convolve, deviation, max_coeff_diff, phased_poly, sample, vallee_poussin
)

__all__ = [
    "WitnessConfig",
    "WitnessResult",
    "vp_pulse",
    "calibrate_alpha0",
    "build_witness",
    "dual_test_poly",
]


@dataclass(frozen=True)
class WitnessConfig:
    """Profile, method parameters, and the polynomial order n >= 2 of the
    witness; the dual polynomial has degree n - 1, so n = 1 has none."""

    psi: PsiFunction
    method: MethodParams
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ParameterError("WitnessConfig: requires n >= 2")


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


@functools.lru_cache(maxsize=64)
def _pulse_l1(n: int) -> float:
    return l1_norm(vp_pulse(n))


def calibrate_alpha0(n: int) -> float:
    """Scale 1 / ||V_n - 1/2||_1 making the witness source a unit-ball member.

    Sharper than any fixed absolute constant: the L_1 norm is exact up to
    rounding, so ||alpha0 * (V_n - 1/2)||_1 = 1.
    """
    if n < 1:
        raise ParameterError("calibrate_alpha0: requires n >= 1")
    return 1.0 / _pulse_l1(n)


def _witness_direct(cfg: WitnessConfig, alpha0: float) -> TrigPoly:
    """Witness coefficients written out directly from the kernel expansion."""
    k = np.arange(1, 2 * cfg.n, dtype=float)
    amp = alpha0 * np.asarray(cfg.psi(k), dtype=float) * vp_pulse(cfg.n).a
    return phased_poly(amp, cfg.method.beta)


def build_witness(cfg: WitnessConfig) -> WitnessResult:
    """Assemble the calibrated witness and certify its internal consistency.

    The witness f is written directly from the expanded coefficient form and
    cross-checked against convolve(psi, beta, phi); disagreement beyond 1e-10
    signals a sign-convention bug and raises.  The measured deviation is
    ||f - Z(f)||_q.  The pairing I of f - Z(f) against the dual is taken
    twice: in closed form by cosine orthogonality,
    alpha0 * pi / n**s * sum_{k<n} g(k)**q / k, and by the rectangle rule on
    the m = max(1024, next power of two >= 6n + 2) nodes of `sample`, which
    is exact once the grid exceeds the combined bandwidth.  The two values
    must agree to 1e-8 relative, or the orthogonality bookkeeping is broken
    and CoefficientMismatchError is raised.  The certified Hölder lower bound
    is checked against the deviation before returning.
    """
    alpha0 = calibrate_alpha0(cfg.n)
    phi = alpha0 * vp_pulse(cfg.n)
    f = _witness_direct(cfg, alpha0)

    gap = max_coeff_diff(f, convolve(cfg.psi, cfg.method.beta, phi))
    if gap > 1.0e-10:
        raise CoefficientMismatchError(
            f"build_witness: direct expansion and convolution disagree by {gap:.3e}"
        )

    dev_poly = deviation(f, cfg.n, cfg.method.s)
    dev = lq_norm(dev_poly, NormRequest(q=cfg.method.q))
    k = np.arange(1, cfg.n, dtype=float)
    g = np.asarray(growth_function(cfg.psi, cfg.method, k), dtype=float)
    pairing = alpha0 * math.pi / cfg.n ** cfg.method.s * float(np.sum(g ** cfg.method.q / k))
    dual = dual_test_poly(cfg)
    grid_m = max(1024, _next_pow2(6 * cfg.n + 2))
    quadrature = float(2.0 * math.pi / grid_m * np.sum(sample(dev_poly, grid_m) * sample(dual, grid_m)))
    if abs(pairing - quadrature) > 1.0e-8 * max(1.0, abs(pairing)):
        raise CoefficientMismatchError(
            f"build_witness: pairing closed form {pairing} vs quadrature {quadrature}"
        )

    lower = pairing / lq_norm(dual, NormRequest(q=cfg.method.q_prime))
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


def dual_test_poly(cfg: WitnessConfig) -> TrigPoly:
    """Test polynomial of degree n - 1 pairing against the deviation.

    The k-th amplitude is g(k)**(q-1) / k**(1/q), with the same phase
    rotation beta*pi/2 as the kernel; g is the composite growth function.
    """
    k = np.arange(1, cfg.n, dtype=float)
    g = np.asarray(growth_function(cfg.psi, cfg.method, k), dtype=float)
    return phased_poly(g ** (cfg.method.q - 1.0) / k ** (1.0 / cfg.method.q), cfg.method.beta)
