"""Closed-form rate laws and the bounded-ratio experiment harness.

An order equality between the measured deviation and a closed-form rate is
operationalized at desk scale as a bounded ratio: over a geometric grid of
polynomial orders n, max(deviation/rate) / min(deviation/rate) must stay
below a configurable band limit.  The harness brackets the class-level
deviation from below by the extremal witness and from above by the
two-norm majorant of the kernel split.

`theoretical_rate` is the one three-regime rate law; both experiments
tabulate it, through the private `_rate`, after one regime classification.
The Weyl–Nagy profiles psi(t) = t**(-r) are `Power(r)`, whose three cases
are the three regimes, so `table-vnad` reads its case from
`RateReport.regime`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .decay import (
    Convexity,
    MethodParams,
    Power,
    PsiFunction,
    Regime,
    RegimeResult,
    check_almost_decreasing,
    classify_regime,
    reciprocal_convexity,
)
from .errors import ConvergenceError, ParameterError, RegimeMismatchError
from .norms import NormRequest, best_approx, l1_norm, lq_norm
from .trig import (
    KernelSpec,
    TrigPoly,
    deviation,
    deviation_coeffs,
    panel_integral,
    phased_poly,
)
from .witness import WitnessConfig, build_witness

__all__ = [
    "theoretical_rate",
    "critical_integral",
    "upper_bound_estimate",
    "unit_ball_sources",
    "unit_ball_deviations",
    "RateReport",
    "loglog_slope",
    "ratio_experiment",
    "best_vs_method_experiment",
]


def critical_integral(psi: PsiFunction, method: MethodParams, n: int) -> float:
    """int_1^n g(t)**q / t dt for the composite growth function g.

    Pure powers are integrated analytically (the boundary case is exactly
    log n).  Other profiles are integrated in u = log t, where the integrand
    is exp(q*log(psi(e**u)) + q*gamma*u), gamma = s + 1/q', by
    panel_integral: a 32-point Gauss-Legendre rule on panels halved, from
    the one panel [0, log n], until two sums agree to 1e-13 relative, else
    ConvergenceError.
    """
    if n < 2:
        raise ParameterError("critical_integral: requires n >= 2")
    q = method.q
    if isinstance(psi, Power):
        qe = q * (method.growth_exponent - psi.r)
        if abs(qe) < 1.0e-12:
            return math.log(n)
        return (float(n) ** qe - 1.0) / qe

    def log_integrand(u: np.ndarray) -> np.ndarray:
        return q * psi.log_value(np.exp(u)) + q * method.growth_exponent * u

    return panel_integral(log_integrand, np.log([1.0, float(n)]))


def _rate(psi: PsiFunction, method: MethodParams, regime: RegimeResult, n: int) -> float:
    """theoretical_rate without its checks: the law of `regime` at order n."""
    if regime.regime is Regime.GROWING:
        return float(psi(float(n))) * float(n) ** (1.0 - 1.0 / method.q)
    if regime.regime is Regime.CRITICAL:
        return float(n) ** (-method.s) * critical_integral(psi, method, n) ** (1.0 / method.q)
    return float(n) ** (-method.s)


def theoretical_rate(
    psi: PsiFunction, method: MethodParams, regime: RegimeResult, n: int
) -> float:
    """The rate law at order n, guarded against a stale regime tag.

    This is the library's one three-regime law: psi(n) * n**(1 - 1/q) when
    growing, n**(-s) * critical_integral(psi, method, n)**(1/q) when
    critical, and n**(-s) when decaying.
    """
    if n < 2:
        raise ParameterError("theoretical_rate: requires n >= 2")
    current = classify_regime(psi, method)
    if current.regime is not regime.regime:
        raise RegimeMismatchError(
            f"theoretical_rate: supplied regime {regime.regime.value} but "
            f"classification gives {current.regime.value}"
        )
    return _rate(psi, method, current, n)


def upper_bound_estimate(psi: PsiFunction, method: MethodParams, n: int) -> float:
    """Two-norm majorant dominating every deviation generated by unit-ball sources.

    Splits the deviation kernel into the head, the deviation of the kernel's
    harmonics k < n, and the coefficient tail from n on, which the deviation
    leaves unchanged; the majorant is

        (1/pi) * ||head||_q  +  (1/pi) * ||tail||_q,

    with the tail truncated at a length that is doubled until the majorant
    value stabilizes to 0.1% (the truncated majorant already dominates every
    source of degree within the truncation, so stabilization only sharpens
    the reported number).
    """
    if n < 1:
        raise ParameterError("upper_bound_estimate: requires n >= 1")
    theta = check_almost_decreasing(psi, method.q_prime)
    if not theta.member:
        warnings.warn(
            "upper_bound_estimate: psi failed the kernel integrability test for q'",
            stacklevel=2,
        )
    req = NormRequest(q=method.q, grid_m=1024, tolerance=1.0e-8)
    head_term = 0.0
    if n > 1:
        k = np.arange(1, n, dtype=float)
        head = deviation(phased_poly(np.asarray(psi(k), dtype=float), method.beta), n, method.s)
        head_term = lq_norm(head, req) / math.pi

    def majorant(length: int) -> float:
        k = np.arange(n, length + 1, dtype=float)
        tail = phased_poly(np.asarray(psi(k), dtype=float), method.beta, first_k=n)
        return head_term + lq_norm(tail, req) / math.pi

    length = max(4 * n, 64)
    prev = majorant(length)
    for _ in range(12):
        length *= 2
        curr = majorant(length)
        if abs(curr - prev) < 1.0e-3 * curr:
            return curr
        prev = curr
    raise ConvergenceError("upper_bound_estimate: tail norm did not stabilize")


UNIT_BALL_DEGREE = 64


@functools.lru_cache(maxsize=16)
def unit_ball_sources(count: int, seed: int) -> tuple[TrigPoly, ...]:
    """Seeded random zero-mean polynomials of degree UNIT_BALL_DEGREE, each
    scaled to unit L_1 norm (exact up to rounding).

    The immutable sources are built once per (count, seed) and cached, since
    unit_ball_deviations asks for the same sources at every order n."""
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(count):
        phi = TrigPoly(0.0, rng.standard_normal(UNIT_BALL_DEGREE), rng.standard_normal(UNIT_BALL_DEGREE))
        sources.append((1.0 / l1_norm(phi)) * phi)
    return tuple(sources)


def unit_ball_deviations(
    psi: PsiFunction, method: MethodParams, n: int, count: int, seed: int
) -> list[float]:
    """Measured deviations for the sources of unit_ball_sources(count, seed).

    Every returned deviation is dominated by upper_bound_estimate(psi,
    method, n), whose tail truncation is at least 64.
    """
    req = NormRequest(q=method.q)
    kernel = KernelSpec(psi=psi, beta=method.beta, length=max(UNIT_BALL_DEGREE, n))
    return [
        lq_norm(deviation_coeffs(phi, kernel, n, method.s), req)
        for phi in unit_ball_sources(count, seed)
    ]


@dataclass(frozen=True)
class RateReport:
    """Per-order table of measured deviations against a closed-form rate.

    `deviations` are the witness deviations ||f - Z(f)||_q and `upper_rates`
    the closed-form rate of `regime`.  `lower_bounds` are certified values at
    or below the deviations: the Hölder quotient I / ||dual||_{q'} of the
    witness, or the best approximation E_n(f)_q, which no concrete method
    beats.  `ratio_band` is the (min, max) of deviation/rate.
    """

    n_grid: Tuple[int, ...]
    regime: RegimeResult
    deviations: Tuple[float, ...]
    lower_bounds: Tuple[float, ...]
    upper_rates: Tuple[float, ...]
    ratio_band: Tuple[float, float]
    verdict: bool

    def __post_init__(self) -> None:
        ns = self.n_grid
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ParameterError("RateReport: n_grid must be strictly increasing")
        for name in ("deviations", "lower_bounds", "upper_rates"):
            vals = getattr(self, name)
            if len(vals) != len(ns) or any(not (v > 0.0) for v in vals):
                raise ParameterError(f"RateReport: {name} must be positive, one per n")

    def to_csv(self) -> str:
        lines = ["n,deviation,lower_bound,upper_rate,ratio"]
        for n, d, lo, u in zip(self.n_grid, self.deviations, self.lower_bounds, self.upper_rates):
            lines.append(f"{n},{d!r},{lo!r},{u!r},{d / u!r}")
        return "\n".join(lines) + "\n"


def loglog_slope(n_grid: Sequence[int], values: Sequence[float]) -> float:
    """Ordinary least-squares slope of log(values) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(n_grid, float)), np.log(np.asarray(values, float)), 1)[0])


def _validate_grid(n_grid: Sequence[int]) -> Tuple[int, ...]:
    ns = tuple(int(n) for n in n_grid)
    if len(ns) < 5:
        raise ParameterError("experiment: n_grid needs at least 5 points")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("experiment: n_grid must be strictly increasing")
    if ns[0] < 4 or ns[-1] > 1024:
        raise ParameterError("experiment: n_grid must lie within [4, 1024]")
    return ns


def _banded_report(
    ns: Tuple[int, ...],
    regime: RegimeResult,
    deviations: Sequence[float],
    lowers: Sequence[float],
    rates: Sequence[float],
    band_limit: float,
) -> RateReport:
    """The report and verdict shared by both experiments.

    The verdict requires every lower value to stay at or below its deviation
    (relative slack 1e-9), and both deviation/rate and lower/rate to stay
    within the band limit (max over min of the ratios), which is the
    falsifiable desk-scale reading of an order equality.
    """
    dev_ratios = [d / u for d, u in zip(deviations, rates)]
    low_ratios = [lo / u for lo, u in zip(lowers, rates)]
    band = (min(dev_ratios), max(dev_ratios))
    verdict = (
        all(lo <= d * (1.0 + 1.0e-9) for lo, d in zip(lowers, deviations))
        and band[1] / band[0] <= band_limit
        and max(low_ratios) / min(low_ratios) <= band_limit
    )
    return RateReport(
        n_grid=ns,
        regime=regime,
        deviations=tuple(deviations),
        lower_bounds=tuple(lowers),
        upper_rates=tuple(rates),
        ratio_band=band,
        verdict=verdict,
    )


def ratio_experiment(
    psi: PsiFunction,
    method: MethodParams,
    n_grid: Sequence[int],
    band_limit: float = 4.0,
) -> RateReport:
    """Bounded-ratio certification of the rate law on a grid of orders.

    The regime is classified once.  For each n the witness deviation, its
    certified Hölder lower bound, and the regime's rate law (that of
    theoretical_rate) are tabulated; see _banded_report for the verdict.
    """
    ns = _validate_grid(n_grid)
    if not (band_limit > 1.0):
        raise ParameterError("ratio_experiment: band_limit must exceed 1")
    regime = classify_regime(psi, method)

    deviations = []
    lowers = []
    rates = []
    for n in ns:
        res = build_witness(WitnessConfig(psi=psi, method=method, n=n))
        deviations.append(res.deviation)
        lowers.append(res.lower_bound)
        rates.append(_rate(psi, method, regime, n))
    return _banded_report(ns, regime, deviations, lowers, rates, band_limit)


def best_vs_method_experiment(
    psi: PsiFunction,
    method: MethodParams,
    n_grid: Sequence[int],
    band_limit: float = 5.0,
) -> RateReport:
    """Compare best approximation with the Zygmund deviation in the growing regime.

    Preconditions: the regime must classify as GROWING, psi must pass the
    kernel integrability test for q', and 1/psi must have a definite
    convexity.  The report stores Zygmund deviations as `deviations`, best
    approximation values as `lower_bounds` (the infimum can never exceed a
    concrete method), and the growing rate law psi(n) * n**(1 - 1/q) as
    `upper_rates`; see _banded_report for the verdict.
    """
    ns = _validate_grid(n_grid)
    regime = classify_regime(psi, method)
    if regime.regime is not Regime.GROWING:
        raise RegimeMismatchError(
            f"best_vs_method_experiment: requires the growing regime, got {regime.regime.value}"
        )
    theta = check_almost_decreasing(psi, method.q_prime)
    if not theta.member:
        raise ParameterError(
            "best_vs_method_experiment: psi fails the kernel integrability test for q'"
        )
    if reciprocal_convexity(psi, 64) is Convexity.NEITHER:
        raise ParameterError(
            "best_vs_method_experiment: 1/psi has no definite convexity on the test window"
        )
    req = NormRequest(q=method.q)

    zygmund_devs = []
    best_values = []
    rates = []
    for n in ns:
        res = build_witness(WitnessConfig(psi=psi, method=method, n=n))
        zygmund_devs.append(res.deviation)
        best_values.append(best_approx(res.f, n, req).value)
        rates.append(_rate(psi, method, regime, n))
    return _banded_report(ns, regime, zygmund_devs, best_values, rates, band_limit)
