"""Integral-metric norms of periodic polynomials and best approximation.

Norms are taken over the full period, ||p||_q = (int_0^{2pi} |p|^q dt)^{1/q},
with no normalizing factor.

The q = 1 norm is exact.  Between consecutive sign changes of p the integral
of |p| is the absolute increment of the antiderivative, so ||p||_1 needs only
the sign changes, which are bracketed on one FFT sample, screened for hidden
close pairs, and refined by safeguarded Newton iteration.

Other q use the rectangle rule on uniform nodes, which is spectrally accurate
for smooth periodic integrands; |p|^q is only piecewise smooth, so
convergence is confirmed by grid doubling rather than assumed.  The grid and
stop tolerance of a NormRequest steer only this doubling; they are unused at
q = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .trig import TrigPoly, sample

__all__ = [
    "NormRequest",
    "lq_norm",
    "l2_norm_coeffs",
    "l1_norm",
    "sign_changes",
    "BestApproxResult",
    "best_approx",
]

TWO_PI = 2.0 * math.pi

_MAX_DOUBLINGS = 12

# q = 1: sign changes are bracketed on about this many nodes per harmonic.
_ROOT_OVERSAMPLE = 64
# Halvings of a cell that the zero screens cannot clear; the last width is
# about 1e-12 of a grid cell.
_SCREEN_LEVELS = 40
# Newton iterations per zero.  Steps leaving the bracket fall back to
# bisection, so the bracket collapses well within this.
_NEWTON_STEPS = 100
_NEWTON_TOL = 4.0 * np.finfo(float).eps * TWO_PI


@dataclass(frozen=True)
class NormRequest:
    """Quadrature parameters: metric exponent, starting grid, stop tolerance."""

    q: float = 2.0
    grid_m: int = 512
    tolerance: float = 1.0e-10

    def __post_init__(self) -> None:
        if not (self.q >= 1.0 and math.isfinite(self.q)):
            raise ParameterError("NormRequest: requires q in [1, inf)")
        if self.grid_m < 16 or self.grid_m & (self.grid_m - 1):
            raise ParameterError("NormRequest: grid_m must be a power of two >= 16")
        if not (self.tolerance > 0.0):
            raise ParameterError("NormRequest: tolerance must be positive")


def _next_pow2(n: int) -> int:
    return 1 << max(4, (n - 1).bit_length())


def _rectangle_lq(p: TrigPoly, q: float, m: int) -> float:
    v = sample(p, m).values
    return float((TWO_PI / m * np.sum(np.abs(v) ** q)) ** (1.0 / q))


def lq_norm(p: TrigPoly, req: NormRequest) -> float:
    """||p||_q: exact at q = 1, else rectangle-rule quadrature with grid doubling.

    At q = 1 the value is the sum of |P(z_{i+1}) - P(z_i)| over consecutive
    sign changes z_i of p, cyclically across the period, where
    P(t) = a0 t/2 + sum (a_k sin kt - b_k cos kt)/k is the exact
    antiderivative; with no sign change it is pi |a0|.

    Otherwise the grid starts at max(req.grid_m, a power of two resolving p)
    and doubles until two successive values differ by less than
    req.tolerance.  |p|^q is merely piecewise smooth at the zeros of p, and
    the lower q the sharper the kink, so the starting grid oversamples the
    bandwidth more aggressively for small q to leave the doubling budget
    room to converge.
    """
    if req.q == 1.0:
        return _l1_exact(p)
    oversample = 16 if req.q < 2.0 else 4
    m = max(req.grid_m, oversample * _next_pow2(2 * p.degree + 2))
    prev = _rectangle_lq(p, req.q, m)
    for _ in range(_MAX_DOUBLINGS):
        m *= 2
        curr = _rectangle_lq(p, req.q, m)
        # Absolute stop for O(1) norms; proportional above that, since an
        # absolute target below the rounding floor of a large norm would
        # never be met.
        if abs(curr - prev) < req.tolerance * max(1.0, abs(curr)):
            return curr
        prev = curr
    raise ConvergenceError(
        f"lq_norm: no convergence to {req.tolerance} after {_MAX_DOUBLINGS} doublings"
    )


def _l1_exact(p: TrigPoly) -> float:
    z = sign_changes(p)
    if z.size == 0:
        return math.pi * abs(p.a0)
    (antiderivative,) = _jet(p, z, (-1,))
    steps = np.diff(antiderivative, append=antiderivative[0] + math.pi * p.a0)
    return float(np.sum(np.abs(steps)))


def sign_changes(p: TrigPoly) -> np.ndarray:
    """Sorted points of [0, 2pi] at which p changes sign.

    p, p' and p'' are sampled on one power-of-two grid of about
    64 (degree + 1) nodes.  A grid cell [a, b] of width w whose end values of
    p differ in sign brackets a zero, and holds no other when p' keeps its
    sign on it; a cell whose end values agree in sign holds no zero when |p|
    exceeds the chord error there.  Both tests bound the chord error of f
    by w^2/8 * max |f''| over the cell: for f = p that maximum is at most the
    larger of |p''(a)|, |p''(b)| plus w/2 * sum k^3 |c_k| (|c_k| is the
    amplitude of harmonic k), and for f = p' it is at most sum k^3 |c_k|.
    A cell on which |p| stays at the rounding level is settled at once, as
    any zeros it hides enclose no area.  Cells that pass no test are halved
    by exact evaluation, at most _SCREEN_LEVELS times, and then settled by
    the signs of their ends.  The brackets are refined together by Newton's
    method.  A zero of even multiplicity may or may not be reported, which
    is harmless to ||p||_1.
    """
    amp = np.hypot(p.a, p.b)
    if not np.any(amp):
        return np.zeros(0)
    k = np.arange(1, p.degree + 1, dtype=float)
    # Absolute rounding allowances for computed values of p and p'.
    floor0 = 1.0e-12 * (abs(p.a0) / 2.0 + float(np.sum(amp)))
    floor1 = 1.0e-12 * float(k @ amp)
    sup3 = float(k**3 @ amp)

    m = _next_pow2(_ROOT_OVERSAMPLE * (p.degree + 1))
    w = TWO_PI / m
    # The cells of a level all have width w, so each is kept as its left end
    # a and the values at both ends.  On the grid, the values at the right
    # ends are views of the closed samples, whose last node is the first.
    a = w * np.arange(m)
    ends = []
    for f in (p, *(TrigPoly(0.0, *_derivative(p, r)) for r in (1, 2))):
        closed = sample(f, m).values
        closed = np.append(closed, closed[0])
        ends.append((closed[:-1], closed[1:]))
    (va, vb), (sa, sb), (ca, cb) = ends

    brackets = []
    for level in range(_SCREEN_LEVELS + 1):
        change = (va < 0.0) != (vb < 0.0)
        bend = w * w / 8.0 * (np.maximum(np.abs(ca), np.abs(cb)) + w / 2.0 * sup3)
        clear = np.minimum(np.abs(va), np.abs(vb)) - floor0 > bend
        negligible = np.maximum(np.abs(va), np.abs(vb)) + bend <= floor0
        monotone = (sa * sb > 0.0) & (
            np.minimum(np.abs(sa), np.abs(sb)) - floor1 > w * w / 8.0 * sup3
        )
        last = level == _SCREEN_LEVELS
        single = change & (monotone | negligible | last)
        empty = ~change & (clear | negligible | last)
        brackets.append((a[single], a[single] + w, va[single], vb[single]))
        keep = ~(single | empty)
        if not np.any(keep):
            break
        a, va, vb, sa, sb, ca, cb = (x[keep] for x in (a, va, vb, sa, sb, ca, cb))
        w /= 2.0
        mid = a + w
        vm, sm, cm = _jet(p, mid, (0, 1, 2))
        a = np.concatenate([a, mid])
        va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
        sa, sb = np.concatenate([sa, sm]), np.concatenate([sm, sb])
        ca, cb = np.concatenate([ca, cm]), np.concatenate([cm, cb])

    lo, hi, vlo, vhi = (np.concatenate(x) for x in zip(*brackets))
    return np.sort(_newton(p, lo, hi, vlo, vhi, floor0))


def _newton(
    p: TrigPoly, lo: np.ndarray, hi: np.ndarray, vlo: np.ndarray, vhi: np.ndarray, noise: float
) -> np.ndarray:
    """Refine the sign-change brackets [lo, hi] of p to its zeros, all at once.

    Starts from the secant root of the end values.  An iterate on the closed
    bracket is accepted; a step out of it, or a zero derivative, is replaced
    by the bracket midpoint.  A zero is final once the step or the bracket
    is below _NEWTON_TOL, or |p| is at the rounding level `noise`.
    """
    neg_lo = vlo < 0.0
    x = lo - vlo * (hi - lo) / (vhi - vlo)
    active = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        if active.size == 0:
            break
        xa = x[active]
        value, slope = _jet(p, xa, (0, 1))
        same = (value < 0.0) == neg_lo[active]
        la = np.where(same, xa, lo[active])
        ha = np.where(same, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xa - value / slope
        step = np.where((step >= la) & (step <= ha), step, 0.5 * (la + ha))
        x[active], lo[active], hi[active] = step, la, ha
        done = np.abs(value) <= noise
        done |= (np.abs(step - xa) <= _NEWTON_TOL) | (ha - la <= _NEWTON_TOL)
        active = active[~done]
    return x


def _derivative(p: TrigPoly, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine coefficients of the derivative of p of the given
    order; order -1 gives those of the antiderivative less a0 t/2."""
    k = np.arange(1, p.degree + 1, dtype=float) ** order
    a, b = k * p.a, k * p.b
    for _ in range(order % 4):
        a, b = b, -a
    return a, b


def _jet(p: TrigPoly, t: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    """Exact values at the points t of derivatives of p, one array per order.

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


def l2_norm_coeffs(p: TrigPoly) -> float:
    """||p||_2 from the coefficients: sqrt(2pi (a0/2)^2 + pi sum(a^2 + b^2))."""
    acc = TWO_PI * (p.a0 / 2.0) ** 2
    if p.degree:
        acc += math.pi * float(np.sum(p.a**2 + p.b**2))
    return math.sqrt(acc)


def l1_norm(p: TrigPoly, req: NormRequest | None = None) -> float:
    """||p||_1, exact up to rounding (used for witness calibration).

    Computed by lq_norm from the sign changes of p and its exact
    antiderivative.  `req` is accepted for compatibility; its grid and
    tolerance are unused at q = 1.
    """
    return lq_norm(p, NormRequest(q=1.0))


@dataclass(frozen=True, eq=False)
class BestApproxResult:
    """Best approximation by polynomials of degree <= n - 1 in the q metric."""

    value: float
    minimizer: TrigPoly
    iterations: int
    converged: bool


def best_approx(f: TrigPoly, n: int, req: NormRequest) -> BestApproxResult:
    """Minimize ||f - t||_q over trigonometric polynomials t of degree <= n-1.

    For q = 2 the truncated Fourier sum is the exact minimizer.  Otherwise
    the convex problem is solved by iteratively reweighted least squares on
    a uniform sample grid, started from the truncation; weights |r|^(q-2)
    are clipped below at 1e-10 (they degenerate near residual zeros for
    q > 2), and for q > 2 the iterate moves a partial step 1/(q-1) toward
    the weighted solution, the classical stabilization of the method.  The
    reported value is always the grid-doubling quadrature norm of the final
    residual, so a non-converged run still yields a valid upper bound on the
    infimum.
    """
    if n < 1:
        raise ParameterError("best_approx: requires n >= 1")
    if not (1.0 < req.q and math.isfinite(req.q)):
        raise ParameterError("best_approx: requires q in (1, inf)")

    truncation = f.truncated(n - 1).padded(n - 1)
    if req.q == 2.0:
        value = lq_norm(f - truncation, req)
        return BestApproxResult(value=value, minimizer=truncation, iterations=0, converged=True)

    q = req.q
    d = max(f.degree, n - 1)
    m = max(req.grid_m, _next_pow2(4 * (d + 1)))
    fvals = sample(f, m).values
    nodes = TWO_PI * np.arange(m) / m

    ncols = 2 * (n - 1) + 1
    basis = np.empty((m, ncols))
    basis[:, 0] = 0.5
    if n > 1:
        k = np.arange(1, n, dtype=float)
        phase = np.multiply.outer(nodes, k)
        basis[:, 1:n] = np.cos(phase)
        basis[:, n:] = np.sin(phase)

    def unpack(c: np.ndarray) -> TrigPoly:
        if n == 1:
            return TrigPoly.constant(float(c[0]))
        return TrigPoly(float(c[0]), c[1:n].copy(), c[n:].copy())

    def objective(resid: np.ndarray) -> float:
        return float((TWO_PI / m * np.sum(np.abs(resid) ** q)) ** (1.0 / q))

    coef = np.zeros(ncols)
    coef[0] = truncation.a0
    if n > 1:
        coef[1:n] = truncation.a
        coef[n:] = truncation.b

    step = 1.0 if q < 2.0 else 1.0 / (q - 1.0)
    best_coef = coef.copy()
    best_obj = objective(fvals - basis @ coef)
    prev_obj = best_obj
    flat_count = 0
    converged = False
    iterations = 0

    for iterations in range(1, 501):
        resid = fvals - basis @ coef
        w = np.clip(np.abs(resid), 1.0e-10, None) ** (q - 2.0)
        w = np.clip(w, 1.0e-10, None)
        sw = np.sqrt(w)
        solution, *_ = np.linalg.lstsq(basis * sw[:, None], fvals * sw, rcond=None)
        coef = coef + step * (solution - coef)
        obj = objective(fvals - basis @ coef)
        if obj < best_obj:
            best_obj = obj
            best_coef = coef.copy()
        if abs(obj - prev_obj) <= 1.0e-9 * max(obj, 1.0e-300):
            flat_count += 1
            if flat_count >= 3:
                converged = True
                break
        else:
            flat_count = 0
        prev_obj = obj

    minimizer = unpack(best_coef)
    value = lq_norm(f - minimizer, req)
    return BestApproxResult(
        value=value, minimizer=minimizer, iterations=iterations, converged=converged
    )
