"""Closed-form rate laws and the bounded-ratio experiment harness.

An order equality between the measured deviation and a closed-form rate is
operationalized at desk scale as a bounded ratio: over a geometric grid of
polynomial orders n, max(deviation/rate) / min(deviation/rate) must stay
below a configurable band limit.  The harness brackets the class-level
deviation from below by the extremal witness and from above by the
two-norm majorant of the kernel split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

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
from .trig import KernelSpec, TrigPoly, deviation_coeffs
from .witness import WitnessConfig, build_witness, lower_bound

__all__ = [
    "RateFormula",
    "rate_formula",
    "theoretical_rate",
    "critical_integral",
    "weyl_nagy_rate",
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
    log n); other profiles go through adaptive quadrature at relative
    tolerance 1e-8.
    """
    if n < 2:
        raise ParameterError("critical_integral: requires n >= 2")
    q = method.q
    if isinstance(psi, Power):
        qe = q * (method.growth_exponent - psi.r)
        if abs(qe) < 1.0e-12:
            return math.log(n)
        return (float(n) ** qe - 1.0) / qe

    from scipy.integrate import quad

    def integrand(t: float) -> float:
        return math.exp(q * psi.log_value(t) + (q * method.growth_exponent - 1.0) * math.log(t))

    value, _ = quad(integrand, 1.0, float(n), epsrel=1.0e-8, limit=200)
    return value


@dataclass(frozen=True)
class RateFormula:
    """Closed-form rate matched to a growth regime."""

    regime: RegimeResult
    description: str
    evaluate: Callable[[int], float]

    def __call__(self, n: int) -> float:
        return self.evaluate(n)


def rate_formula(psi: PsiFunction, method: MethodParams) -> RateFormula:
    """Build the rate law matching the classified regime of (psi, method)."""
    result = classify_regime(psi, method)
    if result.regime is Regime.GROWING:
        return RateFormula(
            regime=result,
            description="psi(n) * n**(1 - 1/q)",
            evaluate=lambda n: float(psi(float(n))) * float(n) ** (1.0 - 1.0 / method.q),
        )
    if result.regime is Regime.CRITICAL:
        return RateFormula(
            regime=result,
            description="n**(-s) * (int_1^n g**q/t dt)**(1/q)",
            evaluate=lambda n: float(n) ** (-method.s)
            * critical_integral(psi, method, n) ** (1.0 / method.q),
        )
    if result.regime is Regime.DECAYING:
        return RateFormula(
            regime=result,
            description="n**(-s)",
            evaluate=lambda n: float(n) ** (-method.s),
        )
    raise RegimeMismatchError("rate_formula: regime could not be determined")


def theoretical_rate(
    psi: PsiFunction, method: MethodParams, regime: RegimeResult, n: int
) -> float:
    """Rate law value at order n, guarded against a stale regime tag."""
    if n < 2:
        raise ParameterError("theoretical_rate: requires n >= 2")
    actual = classify_regime(psi, method)
    if actual.regime is not regime.regime:
        raise RegimeMismatchError(
            f"theoretical_rate: supplied regime {regime.regime.value} but "
            f"classification gives {actual.regime.value}"
        )
    return rate_formula(psi, method)(n)


def weyl_nagy_rate(r: float, s: float, q: float, n: int) -> float:
    """Three-case closed rate for the pure-power profile psi(t) = t**(-r).

    Requires r > 1 - 1/q; the case is selected by comparing r with
    s + 1 - 1/q (boundary resolved within 1e-12):

        r below the boundary  ->  n**(-(r - 1 + 1/q))
        r at the boundary     ->  n**(-s) * log(n)**(1/q)
        r above the boundary  ->  n**(-s)
    """
    if not (1.0 < q and math.isfinite(q)):
        raise ParameterError("weyl_nagy_rate: requires q in (1, inf)")
    if not (s > 0.0):
        raise ParameterError("weyl_nagy_rate: requires s > 0")
    if not (r > 1.0 - 1.0 / q):
        raise ParameterError("weyl_nagy_rate: requires r > 1 - 1/q")
    if n < 2:
        raise ParameterError("weyl_nagy_rate: requires n >= 2")
    boundary = s + 1.0 - 1.0 / q
    if r < boundary - 1.0e-12:
        return float(n) ** (-(r - 1.0 + 1.0 / q))
    if r > boundary + 1.0e-12:
        return float(n) ** (-s)
    return float(n) ** (-s) * math.log(n) ** (1.0 / q)


def _kernel_band_poly(psi: PsiFunction, beta: float, lo: int, hi: int, weight_s: float = 0.0) -> TrigPoly:
    """sum_{k=lo}^{hi} psi(k) k**weight_s cos(kt - beta*pi/2) as a TrigPoly."""
    deg = hi
    a = np.zeros(deg)
    b = np.zeros(deg)
    k = np.arange(lo, hi + 1, dtype=float)
    amp = np.asarray(psi(k), dtype=float) * k**weight_s
    phase = beta * math.pi / 2.0
    a[lo - 1 :] = amp * math.cos(phase)
    b[lo - 1 :] = amp * math.sin(phase)
    return TrigPoly(0.0, a, b)


def upper_bound_estimate(
    psi: PsiFunction, method: MethodParams, n: int, oversample: int = 1
) -> float:
    """Two-norm majorant dominating every deviation generated by unit-ball sources.

    Splits the deviation kernel into the order-n head, scaled by n**(-s), and
    the coefficient tail from n on; the majorant is

        (1/pi) * ||head||_q / n**s  +  (1/pi) * ||tail||_q,

    with the tail truncated at a length that is doubled until the majorant
    value stabilizes to 0.1% (the truncated majorant already dominates every
    source of degree within the truncation, so stabilization only sharpens
    the reported number).
    """
    if n < 1:
        raise ParameterError("upper_bound_estimate: requires n >= 1")
    if oversample < 1:
        raise ParameterError("upper_bound_estimate: oversample must be >= 1")
    theta = check_almost_decreasing(psi, method.q_prime)
    if theta.member is not True:
        warnings.warn(
            "upper_bound_estimate: psi failed the kernel integrability test for q'",
            stacklevel=2,
        )
    req = NormRequest(q=method.q, grid_m=1024, tolerance=1.0e-8)
    if n > 1:
        head = _kernel_band_poly(psi, method.beta, 1, n - 1, weight_s=method.s)
        head_term = lq_norm(head, req) / (math.pi * float(n) ** method.s)
    else:
        head_term = 0.0

    length = oversample * max(4 * n, 64)
    prev = head_term + lq_norm(_kernel_band_poly(psi, method.beta, n, length), req) / math.pi
    for _ in range(12):
        length *= 2
        curr = head_term + lq_norm(_kernel_band_poly(psi, method.beta, n, length), req) / math.pi
        if abs(curr - prev) < 1.0e-3 * curr:
            return curr
        prev = curr
    raise ConvergenceError("upper_bound_estimate: tail norm did not stabilize")


def unit_ball_sources(count: int, seed: int, degree: int = 64) -> list[TrigPoly]:
    """Seeded random zero-mean polynomials of the given degree, each scaled
    to unit L_1 norm (exact up to rounding)."""
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(count):
        phi = TrigPoly(0.0, rng.standard_normal(degree), rng.standard_normal(degree))
        sources.append((1.0 / l1_norm(phi)) * phi)
    return sources


def unit_ball_deviations(
    psi: PsiFunction,
    method: MethodParams,
    n: int,
    count: int,
    seed: int,
    degree: int = 64,
) -> list[float]:
    """Measured deviations for the sources of unit_ball_sources(count, seed, degree).

    Every returned deviation is dominated by upper_bound_estimate(psi,
    method, n) as long as the source degree stays within the majorant's tail
    truncation.
    """
    req = NormRequest(q=method.q, grid_m=512, tolerance=1.0e-10)
    kernel = KernelSpec(psi=psi, beta=method.beta, length=max(degree, n))
    return [
        lq_norm(deviation_coeffs(phi, kernel, n, method.s), req)
        for phi in unit_ball_sources(count, seed, degree)
    ]


@dataclass(frozen=True)
class RateReport:
    """Per-order table of measured deviations against a closed-form rate."""

    n_grid: Tuple[int, ...]
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

    @property
    def ratios(self) -> Tuple[float, ...]:
        return tuple(d / u for d, u in zip(self.deviations, self.upper_rates))

    def to_csv(self) -> str:
        lines = ["n,deviation,lower_bound,upper_rate,ratio"]
        for n, d, lo, u in zip(self.n_grid, self.deviations, self.lower_bounds, self.upper_rates):
            lines.append(f"{n},{d!r},{lo!r},{u!r},{d / u!r}")
        return "\n".join(lines) + "\n"


def loglog_slope(n_grid: Sequence[int], values: Sequence[float]) -> float:
    """Ordinary least-squares slope of log(values) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(n_grid, float)), np.log(np.asarray(values, float)), 1)[0])


def _band(values: Sequence[float]) -> Tuple[float, float]:
    return (min(values), max(values))


def _validate_grid(n_grid: Sequence[int]) -> Tuple[int, ...]:
    ns = tuple(int(n) for n in n_grid)
    if len(ns) < 5:
        raise ParameterError("experiment: n_grid needs at least 5 points")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("experiment: n_grid must be strictly increasing")
    if ns[0] < 4 or ns[-1] > 1024:
        raise ParameterError("experiment: n_grid must lie within [4, 1024]")
    return ns


def ratio_experiment(
    psi: PsiFunction,
    method: MethodParams,
    n_grid: Sequence[int],
    band_limit: float = 4.0,
) -> RateReport:
    """Bounded-ratio certification of the rate law on a grid of orders.

    For each n the witness deviation, its pairing lower bound, and the
    regime's closed-form rate are tabulated.  The verdict is True when both
    deviation/rate and lower/rate stay within the band limit (max over min
    of the ratios), which is the falsifiable desk-scale reading of an order
    equality.
    """
    ns = _validate_grid(n_grid)
    if not (band_limit > 1.0):
        raise ParameterError("ratio_experiment: band_limit must exceed 1")
    regime = classify_regime(psi, method)
    if regime.regime is Regime.UNDETERMINED:
        raise RegimeMismatchError("ratio_experiment: regime could not be determined")
    formula = rate_formula(psi, method)

    deviations = []
    lowers = []
    uppers = []
    for n in ns:
        cfg = WitnessConfig(psi=psi, method=method, n=n)
        res = build_witness(cfg)
        deviations.append(res.deviation)
        lowers.append(lower_bound(cfg, res))
        uppers.append(formula(n))

    dev_ratios = [d / u for d, u in zip(deviations, uppers)]
    low_ratios = [lo / u for lo, u in zip(lowers, uppers)]
    band = _band(dev_ratios)
    verdict = (
        band[1] / band[0] <= band_limit
        and max(low_ratios) / min(low_ratios) <= band_limit
    )
    return RateReport(
        n_grid=ns,
        deviations=tuple(deviations),
        lower_bounds=tuple(lowers),
        upper_rates=tuple(uppers),
        ratio_band=band,
        verdict=verdict,
    )


def best_vs_method_experiment(
    psi: PsiFunction,
    method: MethodParams,
    n_grid: Sequence[int],
    band_limit: float = 5.0,
    norm_request: Optional[NormRequest] = None,
) -> RateReport:
    """Compare best approximation with the Zygmund deviation in the growing regime.

    Preconditions: the regime must classify as GROWING, psi must pass the
    kernel integrability test for q', and 1/psi must have a definite
    convexity.  The report stores Zygmund deviations as `deviations`, best
    approximation values as `lower_bounds` (the infimum can never exceed a
    concrete method), and psi(n) * n**(1 - 1/q) as `upper_rates`; the
    verdict additionally requires both to stay banded against the rate.
    """
    ns = _validate_grid(n_grid)
    regime = classify_regime(psi, method)
    if regime.regime is not Regime.GROWING:
        raise RegimeMismatchError(
            f"best_vs_method_experiment: requires the growing regime, got {regime.regime.value}"
        )
    theta = check_almost_decreasing(psi, method.q_prime)
    if theta.member is not True:
        raise ParameterError(
            "best_vs_method_experiment: psi fails the kernel integrability test for q'"
        )
    if reciprocal_convexity(psi, 64) is Convexity.NEITHER:
        raise ParameterError(
            "best_vs_method_experiment: 1/psi has no definite convexity on the test window"
        )
    req = norm_request or NormRequest(q=method.q, grid_m=512, tolerance=1.0e-10)

    zygmund_devs = []
    best_values = []
    rates = []
    dominated = True
    for n in ns:
        cfg = WitnessConfig(psi=psi, method=method, n=n)
        res = build_witness(cfg, req)
        best = best_approx(res.f, n, req)
        zygmund_devs.append(res.deviation)
        best_values.append(best.value)
        rates.append(float(psi(float(n))) * float(n) ** (1.0 - 1.0 / method.q))
        if best.value > res.deviation * (1.0 + 1.0e-9):
            dominated = False

    zyg_ratios = [d / u for d, u in zip(zygmund_devs, rates)]
    best_ratios = [b / u for b, u in zip(best_values, rates)]
    band = _band(zyg_ratios)
    verdict = (
        dominated
        and band[1] / band[0] <= band_limit
        and max(best_ratios) / min(best_ratios) <= band_limit
    )
    return RateReport(
        n_grid=ns,
        deviations=tuple(zygmund_devs),
        lower_bounds=tuple(best_values),
        upper_rates=tuple(rates),
        ratio_band=band,
        verdict=verdict,
    )
