"""Closed-form rate laws and the bounded-ratio experiment harness.

An order equality between the measured deviation and a closed-form rate is
operationalized at desk scale as a bounded ratio: over a geometric grid of
polynomial orders n, max(deviation/rate) / min(deviation/rate) must stay
below a configurable band limit.  Both experiments bound the class-level
deviation from below only, through the deviation of one extremal witness
per order; they share one loop and differ only in the lower value they
take from the witness.  `RateReport` stores what the loop measured and
derives its spreads, failed conditions and verdict; file formats and
wording belong to the CLI.  The two-norm majorant of the kernel split,
`upper_bound_estimate`, is a separate library function that neither
experiment calls.

`theoretical_rate(psi, method, n)` is the one three-regime rate law and
classifies its own regime; both experiments classify once and tabulate the
same law through the private `_rate`.
The Weyl–Nagy profiles psi(t) = t**(-r) are `Power(r)`, whose three cases
are the three regimes, so `table-vnad` reads its case from
`RateReport.regime`.  The critical law's integral is taken by
`panel_integral`, the library's one profile quadrature, on the Gauss rule
that norms._gauss_jacobi builds for the q' < 2 dual norms.
"""

from __future__ import annotations

import functools
import math
import random
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

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
from .norms import NormRequest, _gauss_jacobi, best_approx, l1_norm, lq_norm
from .trig import TWO_PI, TrigPoly, convolve, deviation, kernel_poly
from .witness import WitnessConfig, WitnessResult, build_witness

__all__ = [
    "theoretical_rate",
    "panel_integral",
    "critical_integral",
    "upper_bound_estimate",
    "unit_ball_sources",
    "unit_ball_deviations",
    "RateReport",
    "loglog_slope",
    "ratio_experiment",
    "best_vs_method_experiment",
]


def panel_integral(log_f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> float:
    """Integral of exp(log_f(x)) over [edges[0], edges[-1]].

    A 32-point Gauss-Legendre rule, norms._gauss_jacobi at weight exponent
    0, runs on every panel between consecutive edges, and every panel is
    halved until two sums agree to 1e-13 relative; log_f takes an array of
    nodes.  Raises ConvergenceError when the sums still differ at 2**15
    panels.
    """
    nodes, weights = _gauss_jacobi(32, 0.0)
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


def critical_integral(psi: PsiFunction, method: MethodParams, n: int) -> float:
    """int_1^n g(t)**q / t dt for the composite growth function g.

    Pure powers are integrated analytically (the boundary case is exactly
    log n).  Other profiles are integrated in u = log t, where the integrand
    is exp(q*log(psi(e**u)) + q*gamma*u), gamma = s + 1/q', by
    panel_integral: the 32-point Gauss-Legendre rule of _gauss_jacobi on
    panels halved, from the one panel [0, log n], until two sums agree to
    1e-13 relative, else ConvergenceError.
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
    """theoretical_rate for a regime already classified: its law at order n."""
    if regime.regime is Regime.GROWING:
        return float(psi(float(n))) * float(n) ** (1.0 - 1.0 / method.q)
    if regime.regime is Regime.CRITICAL:
        return float(n) ** (-method.s) * critical_integral(psi, method, n) ** (1.0 / method.q)
    return float(n) ** (-method.s)


def theoretical_rate(psi: PsiFunction, method: MethodParams, n: int) -> float:
    """The rate law at order n of the regime that classify_regime gives.

    This is the library's one three-regime law: psi(n) * n**(1 - 1/q) when
    growing, n**(-s) * critical_integral(psi, method, n)**(1/q) when
    critical, and n**(-s) when decaying.
    """
    if n < 2:
        raise ParameterError("theoretical_rate: requires n >= 2")
    return _rate(psi, method, classify_regime(psi, method), n)


def upper_bound_estimate(psi: PsiFunction, method: MethodParams, n: int) -> float:
    """Two-norm majorant of the deviations of L_1 unit-ball sources.

    Splits the deviation kernel into the head, the deviation of the kernel's
    harmonics k < n, and the coefficient tail from n on, which the deviation
    leaves unchanged, both built by trig.kernel_poly; the majorant is

        (1/pi) * ||head||_q  +  (1/pi) * ||tail||_q,

    with the tail truncated at a length that is doubled until the value
    moves by less than 0.1%.  The value dominates the deviation of every
    unit-ball source of degree at most the final length; the stop is a
    heuristic, and past it the untruncated majorant still rises by
    0.05-0.12% at q in {1.5, 3, 4} (ROADMAP item 1).
    """
    if n < 1:
        raise ParameterError("upper_bound_estimate: requires n >= 1")
    theta = check_almost_decreasing(psi, method.q_prime)
    if not theta.member:
        warnings.warn(
            "upper_bound_estimate: psi failed the kernel integrability test for q'",
            stacklevel=2,
        )
    req = NormRequest(q=method.q, tolerance=1.0e-8)
    head_term = lq_norm(deviation(kernel_poly(psi, method.beta, n - 1), n, method.s), req) / math.pi

    def majorant(length: int) -> float:
        return head_term + lq_norm(kernel_poly(psi, method.beta, length, n), req) / math.pi

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
    scaled to unit L_1 norm (exact up to rounding), built once per (count,
    seed) and cached, since unit_ball_deviations asks for them at every n.

    Box-Muller maps uniforms u1 = 1 - random() > 0 and u2 of the stdlib's
    random.Random(seed), a stream Python keeps across versions, to each
    harmonic's normals a_k and b_k; numpy.random would add 6 MB of imports."""
    rng = random.Random(seed)
    sources = []
    for _ in range(count):
        u = np.array([rng.random() for _ in range(2 * UNIT_BALL_DEGREE)]).reshape(2, -1)
        radius, angle = np.sqrt(-2.0 * np.log(1.0 - u[0])), TWO_PI * u[1]
        phi = TrigPoly(0.0, radius * np.cos(angle), radius * np.sin(angle))
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
    return [
        lq_norm(deviation(convolve(psi, method.beta, phi), n, method.s), req)
        for phi in unit_ball_sources(count, seed)
    ]


def _max_over_min(values: Sequence[float], rates: Sequence[float]) -> float:
    ratios = [v / u for v, u in zip(values, rates)]
    return max(ratios) / min(ratios)


@dataclass(frozen=True)
class RateReport:
    """Per-order table of measured deviations against a closed-form rate.

    `deviations` are the witness deviations ||f - Z(f)||_q and `upper_rates`
    the closed-form rate of `regime`.  `lower_bounds` are certified values at
    or below the deviations: the Hölder quotient I / ||dual||_{q'} of the
    witness, or the best approximation E_n(f)_q, which no concrete method
    beats.  The report stores only these and `band_limit`; `spread`,
    `lower_spread`, `failures` and `verdict` are derived from them.
    """

    n_grid: Tuple[int, ...]
    regime: RegimeResult
    deviations: Tuple[float, ...]
    lower_bounds: Tuple[float, ...]
    upper_rates: Tuple[float, ...]
    band_limit: float

    def __post_init__(self) -> None:
        ns = self.n_grid
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ParameterError("RateReport: n_grid must be strictly increasing")
        for name in ("deviations", "lower_bounds", "upper_rates"):
            vals = getattr(self, name)
            if len(vals) != len(ns) or any(not (v > 0.0) for v in vals):
                raise ParameterError(f"RateReport: {name} must be positive, one per n")

    @property
    def spread(self) -> float:
        """max over min of deviation/rate across the grid."""
        return _max_over_min(self.deviations, self.upper_rates)

    @property
    def lower_spread(self) -> float:
        """max over min of lower/rate across the grid."""
        return _max_over_min(self.lower_bounds, self.upper_rates)

    @property
    def failures(self) -> Tuple[Tuple[str, float, float], ...]:
        """Each failed verdict condition as (condition, value, limit): the
        largest lower/deviation may exceed 1 by 1e-9, and the spreads of
        deviation/rate and lower/rate may not exceed the band limit."""
        domination = max(lo / d for lo, d in zip(self.lower_bounds, self.deviations))
        conditions = (
            ("lower/deviation", domination, 1.0 + 1.0e-9),
            ("deviation/rate spread", self.spread, self.band_limit),
            ("lower/rate spread", self.lower_spread, self.band_limit),
        )
        return tuple(c for c in conditions if c[1] > c[2])

    @property
    def verdict(self) -> bool:
        """No condition fails: the desk-scale reading of an order equality."""
        return not self.failures


def loglog_slope(n_grid: Sequence[int], values: Sequence[float]) -> float:
    """Ordinary least-squares slope of log(values) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(n_grid, float)), np.log(np.asarray(values, float)), 1)[0])


def _validate_experiment(n_grid: Sequence[int], band_limit: float, q: float) -> Tuple[int, ...]:
    """The grid and band-limit checks both experiments run before building
    any witness.  The largest order is 2^14 at q = 2, where every norm is
    exact and the calibration costs O(sqrt n), and 1024 at other q."""
    ns = tuple(int(n) for n in n_grid)
    if len(ns) < 5:
        raise ParameterError("experiment: n_grid needs at least 5 points")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("experiment: n_grid must be strictly increasing")
    cap = 1 << 14 if q == 2.0 else 1024
    if ns[0] < 4 or ns[-1] > cap:
        raise ParameterError(f"experiment: n_grid must lie within [4, {cap}] at q = {q:g}")
    if not (band_limit > 1.0):
        raise ParameterError("experiment: band_limit must exceed 1")
    return ns


def _experiment(
    psi: PsiFunction,
    method: MethodParams,
    regime: RegimeResult,
    ns: Tuple[int, ...],
    band_limit: float,
    lower: Callable[[WitnessResult, int], float],
) -> RateReport:
    """The loop both experiments share: per order n, one witness, its
    deviation, the driver's lower value lower(witness, n), and the law of
    the already classified regime."""
    deviations = []
    lowers = []
    rates = []
    for n in ns:
        res = build_witness(WitnessConfig(psi=psi, method=method, n=n))
        deviations.append(res.deviation)
        lowers.append(lower(res, n))
        rates.append(_rate(psi, method, regime, n))
    return RateReport(ns, regime, tuple(deviations), tuple(lowers), tuple(rates), band_limit)


def ratio_experiment(
    psi: PsiFunction,
    method: MethodParams,
    n_grid: Sequence[int],
    band_limit: float = 4.0,
) -> RateReport:
    """Bounded-ratio certification of the rate law on a grid of orders.

    The regime is classified once.  For each n the witness deviation, its
    certified Hölder lower bound, and the regime's rate law (that of
    theoretical_rate) are tabulated; see RateReport.verdict.
    """
    ns = _validate_experiment(n_grid, band_limit, method.q)
    regime = classify_regime(psi, method)
    return _experiment(psi, method, regime, ns, band_limit, lambda res, n: res.lower_bound)


def best_vs_method_experiment(
    psi: PsiFunction,
    method: MethodParams,
    n_grid: Sequence[int],
    band_limit: float = 4.0,
) -> RateReport:
    """Compare best approximation with the Zygmund deviation in the growing regime.

    Preconditions: the regime must classify as GROWING, psi must pass the
    kernel integrability test for q', and 1/psi must have a definite
    convexity.  The report stores Zygmund deviations as `deviations`, best
    approximation values as `lower_bounds` (the infimum can never exceed a
    concrete method), and the growing rate law psi(n) * n**(1 - 1/q) as
    `upper_rates`; see RateReport.verdict.
    """
    ns = _validate_experiment(n_grid, band_limit, method.q)
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
    if reciprocal_convexity(psi) is Convexity.NEITHER:
        raise ParameterError(
            "best_vs_method_experiment: 1/psi has no definite convexity on the test window"
        )
    req = NormRequest(q=method.q)
    return _experiment(psi, method, regime, ns, band_limit, lambda res, n: best_approx(res.f, n, req).value)
