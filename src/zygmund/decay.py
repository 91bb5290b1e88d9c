"""Coefficient decay profiles and their structural classification.

The convolution kernels treated by this library have cosine series with
positive nonincreasing coefficients psi(1), psi(2), ...  This module defines
the supported analytic families of such profiles (pure powers and three
log-perturbed variants), the method parameters (smoothing exponent s, target
metric exponent q, kernel phase beta), and the classification of the composite growth function

    g(t) = psi(t) * t**(s + 1/q'),   1/q + 1/q' = 1,

whose behaviour (power growth, slow oscillation, power decay) selects which
approximation-rate law applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "PsiFunction",
    "Power",
    "PowerLog",
    "PowerInvLog",
    "PowerLogLog",
    "MethodParams",
    "growth_function",
    "Regime",
    "RegimeResult",
    "classify_regime",
    "AlmostDecreasingResult",
    "check_almost_decreasing",
    "check_doubling",
    "Convexity",
    "reciprocal_convexity",
]

# Geometric probe grid used by construction-time monotonicity checks and by
# the empirical certificates below.
_PROBE_GRID = np.geomspace(1.0, 1.0e6, 257)

# Absolute tolerance on exponent comparisons (regime boundaries are
# codimension-one conditions and callers supply exact rationals in tests).
_EXPONENT_TOL = 1.0e-12


def _on_domain(
    f: Callable[[np.ndarray], np.ndarray], t: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """f(t) for t >= 1, else DomainError; a scalar t gives a float."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 1.0):
        raise DomainError("psi(t) is defined for t >= 1")
    out = f(arr)
    return float(out) if arr.ndim == 0 else out


class PsiFunction:
    """Positive nonincreasing coefficient profile on [1, inf).

    Subclasses implement ``_value`` and ``_log_value`` (vectorized) and
    carry ``r``, the power-law exponent governing the profile's decay up to
    slowly varying factors, which alone sets the regime.
    """

    r: float

    def __call__(self, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        return _on_domain(self._value, t)

    def log_value(self, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """log(psi(t)), computed by each family without forming psi(t), which
        may under- or overflow where its log does not."""
        return _on_domain(self._log_value, t)

    def _value(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _validate_shape(self) -> None:
        """Reject parameters producing a profile that is not positive and
        nonincreasing on the probe window."""
        v = self._value(_PROBE_GRID)
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ParameterError(
                f"{type(self).__name__}: psi must be finite and positive on [1, 1e6]"
            )
        if np.any(v[1:] > v[:-1] * (1.0 + 1.0e-12)):
            raise ParameterError(
                f"{type(self).__name__}: psi must be nonincreasing on [1, 1e6]"
            )


@dataclass(frozen=True)
class Power(PsiFunction):
    """psi(t) = t**(-r), r > 0."""

    r: float

    def __post_init__(self) -> None:
        if not (self.r > 0.0):
            raise ParameterError("Power: requires r > 0")

    def _value(self, t: np.ndarray) -> np.ndarray:
        return t ** (-self.r)

    def _log_value(self, t: np.ndarray) -> np.ndarray:
        return -self.r * np.log(t)


@dataclass(frozen=True)
class PowerLog(PsiFunction):
    """psi(t) = log(t + c)**alpha / t**r, with r, alpha, c > 0.

    For the profile to be nonincreasing from t = 1 the shift c must be large
    enough relative to alpha / r; the constructor verifies this numerically
    rather than imposing a closed-form bound.
    """

    r: float
    alpha: float
    c: float

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and self.alpha > 0.0 and self.c > 0.0):
            raise ParameterError("PowerLog: requires r > 0, alpha > 0, c > 0")
        self._validate_shape()

    def _value(self, t: np.ndarray) -> np.ndarray:
        return np.log(t + self.c) ** self.alpha / t ** self.r

    def _log_value(self, t: np.ndarray) -> np.ndarray:
        return self.alpha * np.log(np.log(t + self.c)) - self.r * np.log(t)


@dataclass(frozen=True)
class PowerInvLog(PsiFunction):
    """psi(t) = 1 / (t**r * log(t + c)**alpha), with r, alpha, c > 0."""

    r: float
    alpha: float
    c: float

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and self.alpha > 0.0 and self.c > 0.0):
            raise ParameterError("PowerInvLog: requires r > 0, alpha > 0, c > 0")

    def _value(self, t: np.ndarray) -> np.ndarray:
        return 1.0 / (t ** self.r * np.log(t + self.c) ** self.alpha)

    def _log_value(self, t: np.ndarray) -> np.ndarray:
        return -self.r * np.log(t) - self.alpha * np.log(np.log(t + self.c))


@dataclass(frozen=True)
class PowerLogLog(PsiFunction):
    """psi(t) = log(log(t + c)**alpha) / t**r = alpha*log(log(t + c)) / t**r.

    Positivity at t = 1 requires log(1 + c) > 1, i.e. c > e - 1.
    """

    r: float
    alpha: float
    c: float

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and self.alpha > 0.0):
            raise ParameterError("PowerLogLog: requires r > 0, alpha > 0")
        if not (self.c > math.e - 1.0):
            raise ParameterError("PowerLogLog: requires c > e - 1 for positivity")
        self._validate_shape()

    def _value(self, t: np.ndarray) -> np.ndarray:
        return self.alpha * np.log(np.log(t + self.c)) / t ** self.r

    def _log_value(self, t: np.ndarray) -> np.ndarray:
        return (
            np.log(self.alpha * np.log(np.log(t + self.c))) - self.r * np.log(t)
        )


@dataclass(frozen=True)
class MethodParams:
    """Parameters of the summation method and target metric.

    s     : exponent of the polynomial multipliers 1 - (k/n)**s (s = 1 is
            the Fejér case).
    q     : exponent of the target integral metric, 1 < q < inf.
    beta  : phase of the kernel harmonics (the k-th harmonic is
            cos(kt - beta*pi/2)).
    """

    s: float
    q: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not (self.s > 0.0 and math.isfinite(self.s)):
            raise ParameterError("MethodParams: requires s > 0")
        if not (1.0 < self.q and math.isfinite(self.q)):
            raise ParameterError("MethodParams: requires q in (1, inf)")
        if not math.isfinite(self.beta):
            raise ParameterError("MethodParams: beta must be finite")

    @property
    def q_prime(self) -> float:
        """Conjugate exponent, 1/q + 1/q' = 1, snapped to an integer within the
        rounding of q amplified by |dq'/dq| = (q' - 1)^2, so that q = 1.2
        gives 6 and not 6.000000000000001."""
        q_prime = self.q / (self.q - 1.0)
        k = round(q_prime)
        return float(k) if abs(q_prime - k) <= 4.0 * math.ulp(self.q) * q_prime**2 else q_prime

    @property
    def growth_exponent(self) -> float:
        """The power s + 1/q' entering the composite growth function."""
        return self.s + 1.0 / self.q_prime


def growth_function(
    psi: PsiFunction, method: MethodParams, t: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Composite growth function g(t) = psi(t) * t**(s + 1/q')."""
    arr = np.asarray(t, dtype=float)
    out = psi(arr) * arr ** method.growth_exponent
    if arr.ndim == 0:
        return float(out)
    return out


class Regime(Enum):
    """Behaviour of the composite growth function g."""

    GROWING = "growing"        # g(t) * t**(-eps) increases for some eps > 0
    CRITICAL = "critical"      # g slowly oscillating: any power swamps it
    DECAYING = "decaying"      # g(t) * t**(+eps) decreases for some eps > 0


@dataclass(frozen=True)
class RegimeResult:
    """Classification outcome with the certifying exponent when available."""

    regime: Regime
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.regime in (Regime.GROWING, Regime.DECAYING):
            if self.epsilon is not None and not (self.epsilon > 0.0):
                raise ParameterError("RegimeResult: certifying epsilon must be > 0")


def classify_regime(psi: PsiFunction, method: MethodParams) -> RegimeResult:
    """Classify the growth function g(t) = psi(t) * t**(s + 1/q').

    The verdict follows from the net power exponent e = (s + 1/q') - r
    alone: logarithmic factors are slowly oscillating and never flip the
    verdict when e != 0.  The boundary e = 0 is resolved as CRITICAL (pure
    powers give g constant there; log perturbations oscillate slowly by
    definition).
    """
    e = method.growth_exponent - psi.r
    if e > _EXPONENT_TOL:
        return RegimeResult(Regime.GROWING, epsilon=e / 2.0)
    if e < -_EXPONENT_TOL:
        return RegimeResult(Regime.DECAYING, epsilon=-e / 2.0)
    return RegimeResult(Regime.CRITICAL)


@dataclass(frozen=True)
class AlmostDecreasingResult:
    """Verdict of the weighted almost-decreasing test.

    When member is True, alpha is the certifying weight exponent and bound
    the measured constant K with t1**alpha * psi(t1) <= K * t2**alpha *
    psi(t2) for t1 > t2 on the grid.
    """

    member: bool
    alpha: Optional[float] = None
    bound: Optional[float] = None


def check_almost_decreasing(psi: PsiFunction, rho: float) -> AlmostDecreasingResult:
    """Test whether t**alpha * psi(t) is almost decreasing for some alpha > 1/rho.

    This is the integrability condition guaranteeing that the associated
    kernel lies in L_q when rho is the conjugate exponent q'.  Membership is
    decided from the parameters; the certificate (alpha, K) is measured on a
    geometric grid.
    """
    if not (rho >= 1.0):
        raise ParameterError("check_almost_decreasing: requires rho >= 1")
    inv = 1.0 / rho
    r = psi.r
    if isinstance(psi, (PowerLog, PowerLogLog)):
        # The log growth in the numerator must be paid for by the shift c.
        member = r > inv and psi.c > math.exp(2.0 * psi.alpha / (r - inv)) - 1.0
    else:
        member = r > inv
    if not member:
        return AlmostDecreasingResult(member=False)
    alpha = 0.5 * (inv + r)
    # K = sup over grid pairs t' >= t of (t'**alpha psi(t')) / (t**alpha psi(t))
    log_h = psi.log_value(_PROBE_GRID) + alpha * np.log(_PROBE_GRID)
    suffix_max = np.maximum.accumulate(log_h[::-1])[::-1]
    bound = float(np.exp(np.max(suffix_max - log_h)))
    return AlmostDecreasingResult(member=True, alpha=alpha, bound=bound)


def check_doubling(psi: PsiFunction) -> float:
    """The doubling constant K = sup psi(t)/psi(2t), measured on the
    geometric probe grid on [1, 1e6]; inf when it overflows a float.

    Every analytic family is doubling-regular; Power(r) has K = 2**r.
    """
    log_ratio = psi.log_value(_PROBE_GRID) - psi.log_value(2.0 * _PROBE_GRID)
    top = float(np.max(log_ratio))
    return math.exp(top) if top < 700.0 else math.inf


class Convexity(Enum):
    """Sign pattern of second differences of 1/psi on an integer grid."""

    CONVEX_DOWN = "convex_down"  # second differences >= 0 (cup)
    CONVEX_UP = "convex_up"      # second differences <= 0 (cap)
    NEITHER = "neither"


def reciprocal_convexity(psi: PsiFunction) -> Convexity:
    """Classify convexity of 1/psi on the integers 1, 2, ..., 65.

    Affine reciprocals (all second differences zero) report CONVEX_DOWN, by
    the 'all >= 0 first' rule.
    """
    h = 1.0 / psi(np.arange(1.0, 66.0))
    d2 = h[:-2] - 2.0 * h[1:-1] + h[2:]
    tol = 1.0e-12 * max(1.0, float(np.max(np.abs(h))))
    if np.all(d2 >= -tol):
        return Convexity.CONVEX_DOWN
    if np.all(d2 <= tol):
        return Convexity.CONVEX_UP
    return Convexity.NEITHER
