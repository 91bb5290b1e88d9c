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
from typing import Optional, Tuple

import numpy as np

from .decay import MethodParams, PsiFunction, growth_function
from .errors import CoefficientMismatchError, ParameterError, ZygmundError
from .norms import NormRequest, l1_norm, lq_norm
from .trig import KernelSpec, TrigPoly, convolve, max_coeff_diff, vallee_poussin, zygmund_sum

__all__ = [
    "WitnessConfig",
    "WitnessResult",
    "vp_pulse",
    "calibrate_alpha0",
    "build_witness",
    "dual_test_poly",
    "pairing_integral",
    "lower_bound",
]


@dataclass(frozen=True)
class WitnessConfig:
    """Profile, method parameters, and the polynomial order n of the witness."""

    psi: PsiFunction
    method: MethodParams
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError("WitnessConfig: requires n >= 1")


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """Calibrated witness with its pairing value and certified lower bound.

    lower_bound is the Hölder quotient I / ||dual||_{q'}, which never exceeds
    the measured deviation ||f - Z(f)||_q; pairing is the closed-form value
    of the pairing integral I.
    """

    alpha0: float
    phi: TrigPoly
    f: TrigPoly
    pairing: float
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


def pulse_coefficients(n: int) -> np.ndarray:
    """The cosine coefficients of V_n - 1/2 as an array of length 2n - 1."""
    return vp_pulse(n).a


@functools.lru_cache(maxsize=64)
def _pulse_l1(n: int) -> float:
    return l1_norm(vp_pulse(n))


def calibrate_alpha0(n: int, req: Optional[NormRequest] = None) -> float:
    """Scale 1 / ||V_n - 1/2||_1 making the witness source a unit-ball member.

    Sharper than any fixed absolute constant: the L_1 norm is exact up to
    rounding, so ||alpha0 * (V_n - 1/2)||_1 = 1.  `req` is accepted for
    compatibility and unused, as the exact norm needs no quadrature settings.
    """
    if n < 1:
        raise ParameterError("calibrate_alpha0: requires n >= 1")
    return 1.0 / _pulse_l1(n)


def _deviation_request(method: MethodParams) -> NormRequest:
    return NormRequest(q=method.q, grid_m=512, tolerance=1.0e-10)


def _witness_direct(cfg: WitnessConfig, alpha0: float) -> TrigPoly:
    """Witness coefficients written out directly from the kernel expansion."""
    c_k = pulse_coefficients(cfg.n)
    k = np.arange(1, 2 * cfg.n, dtype=float)
    amp = alpha0 * np.asarray(cfg.psi(k), dtype=float) * c_k
    phase = cfg.method.beta * math.pi / 2.0
    return TrigPoly(0.0, amp * math.cos(phase), amp * math.sin(phase))


def build_witness(cfg: WitnessConfig, req: Optional[NormRequest] = None) -> WitnessResult:
    """Assemble the calibrated witness and certify its internal consistency.

    The witness f is written directly from the expanded coefficient form and
    cross-checked against convolve(kernel, phi); disagreement beyond 1e-10
    signals a sign-convention bug and raises.  The measured deviation is
    ||f - Z(f)||_q, and the certified Hölder lower bound is checked against
    it before returning.
    """
    alpha0 = calibrate_alpha0(cfg.n)
    phi = alpha0 * vp_pulse(cfg.n)
    f = _witness_direct(cfg, alpha0)

    kernel = KernelSpec(psi=cfg.psi, beta=cfg.method.beta, length=2 * cfg.n - 1)
    f_conv = convolve(kernel, phi)
    gap = max_coeff_diff(f, f_conv)
    if gap > 1.0e-10:
        raise CoefficientMismatchError(
            f"build_witness: direct expansion and convolution disagree by {gap:.3e}"
        )

    dev_req = req or _deviation_request(cfg.method)
    deviation = lq_norm(f - zygmund_sum(f, cfg.n, cfg.method.s), dev_req)

    pairing = _pairing_closed(cfg, alpha0)
    if cfg.n >= 2:
        dual = dual_test_poly(cfg)
        dual_norm = lq_norm(
            dual, NormRequest(q=cfg.method.q_prime, grid_m=dev_req.grid_m, tolerance=dev_req.tolerance)
        )
        raw_lower = pairing / dual_norm
    else:
        raw_lower = 0.0

    if raw_lower > deviation + 1.0e-9:
        raise ZygmundError(
            f"build_witness: Hölder lower bound {raw_lower} exceeds deviation {deviation}"
        )
    return WitnessResult(
        alpha0=alpha0,
        phi=phi,
        f=f,
        pairing=pairing,
        lower_bound=raw_lower,
        deviation=deviation,
    )


def dual_test_poly(cfg: WitnessConfig) -> TrigPoly:
    """Test polynomial of degree n - 1 pairing against the deviation.

    The k-th amplitude is g(k)**(q-1) / k**(1/q), with the same phase
    rotation beta*pi/2 as the kernel; g is the composite growth function.
    """
    if cfg.n < 2:
        raise ParameterError("dual_test_poly: requires n >= 2")
    k = np.arange(1, cfg.n, dtype=float)
    g = np.asarray(growth_function(cfg.psi, cfg.method, k), dtype=float)
    amp = g ** (cfg.method.q - 1.0) / k ** (1.0 / cfg.method.q)
    phase = cfg.method.beta * math.pi / 2.0
    return TrigPoly(0.0, amp * math.cos(phase), amp * math.sin(phase))


def _pairing_closed(cfg: WitnessConfig, alpha0: float) -> float:
    """Closed form of the pairing integral via the cosine orthogonality
    relation: alpha0 * pi / n**s * sum_{k<n} g(k)**q / k."""
    if cfg.n < 2:
        return 0.0
    k = np.arange(1, cfg.n, dtype=float)
    g = np.asarray(growth_function(cfg.psi, cfg.method, k), dtype=float)
    total = float(np.sum(g ** cfg.method.q / k))
    return alpha0 * math.pi / cfg.n ** cfg.method.s * total


def pairing_integral(cfg: WitnessConfig, grid_m: Optional[int] = None) -> Tuple[float, float]:
    """The pairing integral I by closed form and by quadrature.

    The quadrature form integrates (f - Z(f)) * dual over [-pi, pi] on a
    uniform grid, which is exact for trigonometric polynomials once the grid
    exceeds the combined bandwidth.  Both values are returned; disagreement
    beyond 1e-8 relative indicates broken orthogonality bookkeeping and
    raises.
    """
    if cfg.n < 2:
        raise ParameterError("pairing_integral: requires n >= 2")
    alpha0 = calibrate_alpha0(cfg.n)
    closed = _pairing_closed(cfg, alpha0)

    f = _witness_direct(cfg, alpha0)
    dev = f - zygmund_sum(f, cfg.n, cfg.method.s)
    dual = dual_test_poly(cfg)
    if grid_m is None:
        grid_m = max(1024, 1 << (6 * cfg.n + 1).bit_length())
    t = -math.pi + 2.0 * math.pi * np.arange(grid_m) / grid_m
    quadrature = float(2.0 * math.pi / grid_m * np.sum(dev(t) * dual(t)))

    if abs(closed - quadrature) > 1.0e-8 * max(1.0, abs(closed)):
        raise CoefficientMismatchError(
            f"pairing_integral: closed form {closed} vs quadrature {quadrature}"
        )
    return closed, quadrature


def lower_bound(cfg: WitnessConfig, result: Optional[WitnessResult] = None) -> float:
    """Order-exact lower bound alpha0 * pi / n**s * (sum_{k<n} g(k)**q / k)**(1/q).

    This is the pairing value I multiplied by (sum g**q / k)**(-1/q'); the
    Hölder step (certified inside build_witness) guarantees the companion
    quotient I / ||dual||_{q'} never exceeds the measured deviation, so the
    returned value tracks the deviation up to constants.
    """
    if cfg.n < 2:
        raise ParameterError("lower_bound: requires n >= 2")
    res = result if result is not None else build_witness(cfg)
    if res.lower_bound > res.deviation + 1.0e-9:
        raise ZygmundError("lower_bound: Hölder verification failed")
    k = np.arange(1, cfg.n, dtype=float)
    g = np.asarray(growth_function(cfg.psi, cfg.method, k), dtype=float)
    total = float(np.sum(g ** cfg.method.q / k))
    return res.alpha0 * math.pi / cfg.n ** cfg.method.s * total ** (1.0 / cfg.method.q)
