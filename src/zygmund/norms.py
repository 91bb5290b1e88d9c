"""Integral-metric norms of periodic polynomials and best approximation.

Norms are taken over the full period, ||p||_q = (int_0^{2pi} |p|^q dt)^{1/q},
with no normalizing factor.

The q = 1 norm is exact.  Between consecutive sign changes of p the integral
of |p| is the absolute increment of the antiderivative, so ||p||_1 needs only
the sign changes, which are bracketed on one FFT sample, screened for hidden
close pairs, and refined by safeguarded Newton iteration; exact values off
the sample grid come from `trig._jet`, the library's one point evaluator.
The screen and the Newton step take the cells and an evaluator, so the
witness calibration runs the same screen on a closed form of its own.

The q = 2 norm is exact by Parseval, from the coefficients alone.

At even integer q, |p|^q = p^q is a trigonometric polynomial of degree
q * degree, which the rectangle rule on more than q * degree uniform nodes
integrates exactly, so one sample suffices; on exactly q * degree nodes
(q and the degree both powers of two) only its top harmonic aliases, and
that is subtracted in closed form.

Other q: |p|^q is only piecewise smooth, with a kink at every zero of p,
which is sharper the lower q.  At 1 < q < 2, when p changes sign densely
(at least 1.5 * degree times on one sample of about 8 (degree + 1) nodes,
as the q' < 2 dual norms of the witness do), |p|^q is integrated between
consecutive sign changes z_i, z_{i+1} of `sign_changes`.  There it is
((t - z_i)(z_{i+1} - t))^q times a smooth function, which the Gauss-Jacobi
rule for that weight integrates spectrally; its nodes and weights come from
the Golub-Welsch eigenproblem (Math. Comp. 23, 1969), and the values at the
nodes from `trig._jet`.  The rules on K = 8 and 2K nodes per panel must
agree to the tolerance, or the norm falls back to the doubling below, as it
does for a double zero inside a panel.

Every other case, and a p with sparse zeros (whose screen for sign changes
would cost more than the doubling), uses the rectangle rule on uniform
nodes, which is spectrally accurate for smooth periodic integrands and
merely convergent here, so convergence is confirmed by grid doubling rather
than assumed.  The first grid is a fixed multiple of the first power of two
>= 2 * degree, and each doubling of an m-node grid sums only its m new
midpoints 2 pi (j + 1/2)/m, the grid at offset 1/2, and adds that to the
sum already taken.  Every grid is summed by one reduction, `_power_sum`:
one inverse FFT up to _COSET_NODES nodes, else interleaved inverse FFTs of
at most _COSET_NODES nodes (cosets), reduced as they are made, onto which a
spectrum of higher degree is folded from views of p's coefficients; an even
or odd p transforms only the cosets that negation does not map onto
others.  So a power sum holds O(_COSET_NODES) values beside p whatever the
grid.  lq_norm reads the
tolerance of a NormRequest only in the K/2K check and in this doubling, so
it is unused at q = 1, q = 2 and even integer q.  The doubling's first grid
and best_approx's IRLS grid have at least _MIN_NODES nodes.

Best approximation at q != 2 is reweighted least squares, each step solving
the Hermitian Toeplitz normal equations built from one FFT of the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, ParameterError
from .trig import TWO_PI, TrigPoly, _derivative, _half_spectrum, _jet, _next_pow2, sample

__all__ = [
    "NormRequest",
    "lq_norm",
    "l2_norm_coeffs",
    "l1_norm",
    "sign_changes",
    "BestApproxResult",
    "best_approx",
]

_MAX_DOUBLINGS = 12
# Fewest nodes on the first grid of the other-q doubling and on the IRLS grid.
_MIN_NODES = 512

# _power_sum takes one sample of a grid of at most this many nodes, and
# covers a larger grid by cosets, inverse FFTs of at most this many nodes
# each, batched into arrays of at most this many values (and at most m/16,
# so that a batch's scratch stays a small share of the grid), so that the
# sum holds O(_COSET_NODES) values beside p whatever the grid.  On a 2-vCPU
# Xeon with one BLAS thread (medians of 31 interleaved q = 3 sums), a
# general p of degree 2^18 took 31 ms in 16 folded cosets against 33 ms as
# one 2^20-node transform, and 63 against 66 ms on 2^21 nodes; a cosine
# polynomial, which transforms 9 and 17 of those cosets, took 16 and 27 ms,
# with a tracemalloc peak of 2.5 MiB on 2^20 nodes.  Two cosets (degree
# 2^15 on 2^17 nodes) took 1.6 to 1.8 times the one transform's 2.3 ms.
_COSET_NODES = 1 << 16

# 1 < q < 2: a p with at least _PANEL_DENSITY * degree sign changes on
# about _DENSITY_OVERSAMPLE nodes per harmonic is integrated between its
# zeros by Gauss-Jacobi rules of _PANEL_NODES and 2 _PANEL_NODES nodes.
_PANEL_DENSITY = 1.5
_DENSITY_OVERSAMPLE = 8
_PANEL_NODES = 8
_POLISH_STEPS = 2  # Newton steps on the Golub-Welsch nodes of those rules

# q = 1: sign changes are bracketed on about this many nodes per harmonic.
_ROOT_OVERSAMPLE = 64
# Halvings of a cell that the zero screens cannot clear; the last width is
# about 1e-12 of a grid cell.
_SCREEN_LEVELS = 40
# Cells per block of the screen's first level.
_SCREEN_BLOCK = 1 << 14
# Newton iterations per zero.  Steps leaving the bracket fall back to
# bisection, so the bracket collapses well within this.
_NEWTON_STEPS = 100
_NEWTON_TOL = 4.0 * np.finfo(float).eps * TWO_PI


@dataclass(frozen=True)
class NormRequest:
    """Metric exponent, and the tolerance of the other-q routes of lq_norm,
    which it uses only when q is neither 1 nor an even integer: the two
    Gauss-Jacobi panel rules must agree to it, and the grid doubling stops
    when two successive values do."""

    q: float = 2.0
    tolerance: float = 1.0e-10

    def __post_init__(self) -> None:
        if not (self.q >= 1.0 and math.isfinite(self.q)):
            raise ParameterError("NormRequest: requires q in [1, inf)")
        if not (self.tolerance > 0.0):
            raise ParameterError("NormRequest: tolerance must be positive")


def _power_sum(p: TrigPoly, q: float, m: int, offset: float = 0.0) -> float:
    """sum |p(t_j)|^q over the m uniform nodes t_j = 2 pi (j + offset)/m,
    offset 0 or 1/2.

    The grid comes in pieces: one sample when m <= _COSET_NODES, else the
    cosets of _coset_batches.  Each piece is raised to |.|^q in place while
    it is still in cache and summed, and the coset sums are added with
    their _coset_weights, so a coset grid is never held whole.  On one
    sample the value is np.sum(np.abs(v) ** q), bit for bit; at offset 1/2
    v is the sample of p's half spectrum rotated in place by e^{i pi k/m},
    in no more memory than `sample`; k = 0 turns too, by 1, since numpy may
    round a one-entry product in place unlike out of place (degree 1).
    """
    if m <= _COSET_NODES:
        if offset:
            half = _half_spectrum(p, m)
            half *= np.exp(1j * (TWO_PI * offset / m) * np.arange(p.degree + 1))
            v = np.fft.irfft(half, n=m)
        else:
            v = sample(p, m)
        np.abs(v, out=v)
        np.power(v, q, out=v)
        return float(np.sum(v))
    weights = _coset_weights(p, m, offset)
    sums = np.empty(weights.size)
    c0 = 0
    for batch in _coset_batches(p, m, offset, weights.size):
        np.abs(batch, out=batch)
        np.power(batch, q, out=batch)
        np.sum(batch, axis=1, out=sums[c0 : c0 + len(batch)])
        c0 += len(batch)
    return float(np.sum(weights * sums))


def _coset_length(p: TrigPoly) -> int:
    """n = min(2 L0, _COSET_NODES), L0 the first power of two >= 2*degree + 2."""
    return min(2 * _next_pow2(2 * p.degree + 2), _COSET_NODES)


def _coset_weights(p: TrigPoly, m: int, offset: float) -> np.ndarray:
    """The weights of cosets 0, 1, .. in _power_sum on m nodes, r =
    m/_coset_length(p) cosets in all: 1 on each, unless |p(-t)| = |p(t)|,
    as for an even p (b = 0) or an odd one (a0 = 0, a = 0).  Then negation
    maps coset c onto coset r - c at offset 0, so cosets 0 .. r/2 weigh
    1, 2, .., 2, 1, and onto r - 1 - c at offset 1/2, so cosets
    0 .. r/2 - 1 weigh 2, and no other coset is transformed."""
    r = m // _coset_length(p)
    if p.b.any() and (p.a0 != 0.0 or p.a.any()):
        return np.ones(r)
    weights = np.full(r // 2 + (offset == 0.0), 2.0)
    if offset == 0.0:
        weights[[0, -1]] = 1.0
    return weights


def _coset_batches(p: TrigPoly, m: int, offset: float, cosets: int) -> Iterator[np.ndarray]:
    """The values of p at t_j = 2 pi (j + offset)/m on cosets 0 .. cosets - 1
    of the r = m/n interleaved n-point cosets of m > _COSET_NODES nodes,
    n = _coset_length(p), batch by batch: the batch of cosets
    c0 .. c0 + B - 1 is an array v with v[b, l] = p(t_{l r + c0 + b}).

    Coset c holds the nodes j = l r + c, which are the n nodes of
    p(t + 2 pi h/m), h = c + offset, so its harmonic k is p's times
    e^{2 pi i k h/m}.

    When 2*degree < n, as at every degree below _COSET_NODES/2, a batch
    takes the twiddles e^{2 pi i k b/m}, tabulated once, times the half
    spectrum's e^{2 pi i k (c0 + offset)/m}, whose angle stays below pi
    since k < n/2 and c0 + offset < r, and irfft zero-pads each row.

    Otherwise n = _COSET_NODES, B = 1, and the spectrum is folded modulo n
    (Bailey, J. Supercomputing 4, 1990) from p's coefficients read as rows
    of n: harmonic k = l n + j + 1, (a - i b)[l n + j], goes to bin
    (j + 1) mod n with twiddle e^{2 pi i l h/r} e^{2 pi i (j + 1) h/m}.  So
    S_j = sum_l e^{2 pi i l h/r} (a - i b)[l n + j] is formed by real
    products of the cosines and sines with views of a and b, skipping an
    all-zero a or b and copying only the ragged end of a last row, and is
    multiplied in place by e^{2 pi i (j + 1) h/m}, as two ramps of about
    sqrt(n) values each.  The conjugate harmonics complete the Hermitian
    spectrum: F_b = S_{b-1} + conj S_{n-1-b} for 0 < b <= n/2, and
    F_0 = 2 Re S_{n-1} + n a0/2.  Every angle stays below 2 pi.

    The values differ from the one m-point transform by rounding only, a
    few units in the last place of max |p(t_j)|.  Each v is a fresh array of
    at most _COSET_NODES values beside O(n) scratch, so a caller that
    reduces the batches as they come never holds the grid.
    """
    n = _coset_length(p)
    r = m // n
    unit = TWO_PI / m
    if 2 * p.degree < n:
        half = _half_spectrum(p, n)
        width = max(1, min(_COSET_NODES, m // 16) // n)
        k = np.arange(half.size)
        twiddle = np.exp(1j * unit * np.multiply.outer(np.arange(width), k))
        batch = np.empty_like(twiddle)
        for c0 in range(0, cosets, width):
            rows = min(width, cosets - c0)
            np.multiply(twiddle[:rows], half * np.exp(1j * unit * (k * (c0 + offset))), out=batch[:rows])
            yield np.fft.irfft(batch[:rows], n=n, axis=1)
        return
    whole, ragged = divmod(p.degree, n)
    turns = np.arange(whole + (ragged > 0))
    step = 1 << (n.bit_length() // 2)
    coarse, fine = np.arange(0, n, step), np.arange(1, step + 1)
    has_a, has_b = p.a.any(), p.b.any()

    def fold(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_l weights[l] x[l n : (l + 1) n], the last row zero-padded."""
        rows = weights[:whole] @ x[: whole * n].reshape(whole, n)
        if ragged:
            rows[:ragged] += weights[whole] * x[whole * n :]
        return rows

    for c in range(cosets):
        h = c + offset
        angle = (TWO_PI / r) * (turns * h % r)
        cos, sin = 0.5 * n * np.cos(angle), 0.5 * n * np.sin(angle)
        s = np.zeros(n, dtype=complex)
        # e^{i angle} (a - i b) = (a cos + b sin) + i (a sin - b cos)
        if has_a:
            s.real += fold(p.a, cos)
            s.imag += fold(p.a, sin)
        if has_b:
            s.real += fold(p.b, sin)
            s.imag -= fold(p.b, cos)
        ramp = s.reshape(-1, step)
        ramp *= np.exp(1j * unit * h * coarse)[:, np.newaxis]
        ramp *= np.exp(1j * unit * h * fine)
        spectrum = np.conjugate(s[n // 2 - 1 :][::-1])
        spectrum[1:] += s[: n // 2]
        spectrum[0] += s[-1] + 0.5 * n * p.a0
        # Only the spectrum stays alive while the caller reduces the values.
        del s, ramp
        yield np.fft.irfft(spectrum, n=n)[np.newaxis]


def _even_lq(p: TrigPoly, q: float) -> float:
    """||p||_q at even integer q by the rectangle rule on m = _next_pow2(q d)
    nodes, d = degree, exact up to rounding.

    p^q has degree q d, and the rule on m nodes sees each harmonic e^{ijt}
    of p^q with |j| < m as its mean, zero for j != 0.  When m > q d that
    leaves the mean of p^q alone.  When m = q d, the harmonics e^{+-iqdt}
    alias onto the mean too; only the q copies of the top harmonic of p
    reach them, so their coefficients are c^q and conj(c)^q with
    c = (a_d - i b_d)/2, and the rule's sum is m (mean(p^q) + 2 Re c^q),
    from which the alias is subtracted.  By Parseval and the power-mean
    inequality mean(p^q) >= 2^{q/2} |c|^q, so the correction is at most half
    of the mean and cancels at most a third of the sum.
    """
    bandwidth = int(q) * p.degree
    m = _next_pow2(bandwidth)
    integral = TWO_PI / m * _power_sum(p, q, m)
    if m == bandwidth:
        top = complex(p.a[-1], -p.b[-1]) / 2.0
        integral -= 2.0 * TWO_PI * (top ** int(q)).real
    return integral ** (1.0 / q)


def lq_norm(p: TrigPoly, req: NormRequest) -> float:
    """||p||_q: exact at q = 1, q = 2 and even integer q, else Gauss-Jacobi
    panels between the zeros (1 < q < 2, dense zeros) or rectangle-rule
    quadrature with grid doubling.

    At q = 1 the value is the sum of |P(z_{i+1}) - P(z_i)| over consecutive
    sign changes z_i of p, cyclically across the period, where
    P(t) = a0 t/2 + sum (a_k sin kt - b_k cos kt)/k is the exact
    antiderivative; with no sign change it is pi |a0|.  At q = 2 it is
    l2_norm_coeffs(p).  At even integer q it is the rectangle rule on the
    first power of two m >= q * degree nodes, with the one aliased harmonic
    subtracted when m = q * degree (_even_lq), exact up to rounding.

    At 1 < q < 2, when p has at least _PANEL_DENSITY * degree sign changes
    on the first power of two >= _DENSITY_OVERSAMPLE * (degree + 1) uniform
    nodes, the value is the sum over the panels between consecutive sign
    changes of the Gauss-Jacobi rule on 2 * _PANEL_NODES nodes, provided the
    rule on _PANEL_NODES nodes agrees with it to less than
    req.tolerance * max(1, value) (_panel_lq); a disagreement, such as a
    double zero inside a panel gives, falls through to the doubling.

    Otherwise the grid starts at max(_MIN_NODES, oversample * L), with L the
    first power of two >= 2 * degree (at least 16), and doubles until two
    successive values differ by less than req.tolerance.  |p|^q is merely
    piecewise smooth at the zeros of p, and the lower q the sharper the
    kink, so the oversampling is 16 for q < 2, which leaves the doubling
    budget room to converge, and 2 above, where the first grid has at least
    twice the 2 * degree nodes that resolve p.  Doubling an m-node grid adds
    the m midpoints 2 pi (j + 1/2)/m, whose sum _power_sum(p, q, m, 1/2)
    takes with no shifted copy of p and adds to the m-node sum, so no node
    is sampled twice.  A grid of more than _COSET_NODES nodes is summed
    coset batch by batch, which moves the value by rounding only.
    """
    q = req.q
    if q == 1.0:
        return _l1_exact(p)
    if q == 2.0:
        return l2_norm_coeffs(p)
    if q % 2.0 == 0.0:
        return _even_lq(p, q)
    if q < 2.0 and _dense_zeros(p):
        value = _panel_lq(p, q, req.tolerance)
        if value is not None:
            return value
    oversample = 16 if q < 2.0 else 2
    m = max(_MIN_NODES, oversample * _next_pow2(2 * p.degree))
    total = _power_sum(p, q, m)
    prev = (TWO_PI / m * total) ** (1.0 / q)
    for _ in range(_MAX_DOUBLINGS):
        total += _power_sum(p, q, m, 0.5)
        m *= 2
        curr = (TWO_PI / m * total) ** (1.0 / q)
        # Absolute stop for O(1) norms; proportional above that, since an
        # absolute target below the rounding floor of a large norm would
        # never be met.
        if abs(curr - prev) < req.tolerance * max(1.0, abs(curr)):
            return curr
        prev = curr
    raise ConvergenceError(
        f"lq_norm: no convergence to {req.tolerance} after {_MAX_DOUBLINGS} doublings"
    )


def _dense_zeros(p: TrigPoly) -> bool:
    """Whether p changes sign at least _PANEL_DENSITY * degree times on the
    first power of two >= _DENSITY_OVERSAMPLE * (degree + 1) uniform nodes,
    cyclically."""
    if p.degree == 0:
        return False
    negative = sample(p, _next_pow2(_DENSITY_OVERSAMPLE * (p.degree + 1))) < 0.0
    changes = np.count_nonzero(negative != np.roll(negative, 1))
    return changes >= _PANEL_DENSITY * p.degree


def _gauss_jacobi(k: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_j of the k-point Gauss rule for the weight (1 - x^2)^q on
    [-1, 1], and its weights divided by (1 - x_j^2)^q, so that
    sum_j w_j f(x_j) approximates the integral of f itself when f/(1 - x^2)^q
    is smooth.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    symmetric Jacobi polynomials, whose diagonal is zero and whose
    off-diagonal entries are beta_j = sqrt(j (j + 2q) / ((2j + 2q)^2 - 1)).
    _POLISH_STEPS Newton steps polish them as the zeros of p_k, where
    p_{-1} = 0, p_0 = mu0^{-1/2}, beta_{j+1} p_{j+1} = x p_j - beta_j p_{j-1}
    are the orthonormal polynomials and mu0 = sqrt(pi) Gamma(q + 1) /
    Gamma(q + 3/2) is the integral of the weight, and each weight is the
    Christoffel number 1 / sum_{j<k} p_j(x)^2 at its polished node.  At
    q = 0 this is the Gauss-Legendre rule, which rates.panel_integral reads;
    at k = 32 its weights are within 1e-16 of the exact ones, against 4e-16
    for numpy's leggauss.
    """
    j = np.arange(1, k + 1, dtype=float)
    beta = np.sqrt(j * (j + 2.0 * q) / ((2.0 * j + 2.0 * q) ** 2 - 1.0))
    x = np.linalg.eigvalsh(np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
    mu0 = math.exp(0.5 * math.log(math.pi) + math.lgamma(q + 1.0) - math.lgamma(q + 1.5))
    for step in range(_POLISH_STEPS + 1):
        # p_j, p_j', p_{j-1}, p_{j-1}' and beta_j, from j = 0
        value, slope, prev, dprev, below = np.full(k, mu0**-0.5), np.zeros(k), 0.0, 0.0, 0.0
        squares = np.zeros(k)
        for b in beta:
            squares += value**2
            prev, value = value, (x * value - below * prev) / b
            dprev, slope = slope, (prev + x * slope - below * dprev) / b
            below = b
        if step < _POLISH_STEPS:
            x = x - value / slope
    return x, 1.0 / (squares * (1.0 - x**2) ** q)


def _panel_lq(p: TrigPoly, q: float, tolerance: float) -> float | None:
    """||p||_q, 1 < q < 2, by Gauss-Jacobi rules between the sign changes of
    p, or None when the rules on _PANEL_NODES and 2 _PANEL_NODES nodes per
    panel differ by tolerance * max(1, value) or more.

    On a panel [z_i, z_{i+1}] between simple zeros, |p|^q is
    ((t - z_i)(z_{i+1} - t))^q times a smooth function, which the rule for
    that weight integrates spectrally; the last panel wraps across 2 pi.  A
    zero of even multiplicity, or a zero at which p has a sign change that
    `sign_changes` misses, leaves a kink inside a panel, which the two rules
    disagree on.  Both rules take their values from one `_jet` call.
    """
    z = sign_changes(p)
    if z.size == 0:
        return None
    ends = np.append(z, z[0] + TWO_PI)
    centre, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * np.diff(ends)
    (coarse_x, coarse_w), (fine_x, fine_w) = (_gauss_jacobi(k, q) for k in (_PANEL_NODES, 2 * _PANEL_NODES))
    t = centre[:, None] + half[:, None] * np.concatenate([coarse_x, fine_x])
    (values,) = _jet(p, t.ravel(), (0,))
    integrand = half[:, None] * np.abs(values.reshape(t.shape)) ** q
    coarse = float(np.sum(integrand[:, :_PANEL_NODES] * coarse_w)) ** (1.0 / q)
    fine = float(np.sum(integrand[:, _PANEL_NODES:] * fine_w)) ** (1.0 / q)
    if abs(fine - coarse) < tolerance * max(1.0, fine):
        return fine
    return None


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
    64 (degree + 1) nodes, each written into one row of a single closed
    (3, m + 1) array, whose cells `_screened_zeros` screens and refines.  A
    zero of even multiplicity may or may not be reported, which is harmless
    to ||p||_1.
    """
    amp = np.hypot(p.a, p.b)
    if not np.any(amp):
        return np.zeros(0)
    bounds = _screen_bounds(abs(p.a0) / 2.0, np.arange(1, p.degree + 1, dtype=float), amp)
    m = _next_pow2(_ROOT_OVERSAMPLE * (p.degree + 1))
    # Closed samples: the last node is the first.
    closed = np.empty((3, m + 1))
    for row, f in zip(closed, (p, _derivative(p, 1), _derivative(p, 2))):
        row[:m] = sample(f, m)
    closed[:, m] = closed[:, 0]
    return _screened_zeros(lambda t, orders: _jet(p, t, orders), 0.0, TWO_PI / m, closed, bounds)


def _screen_bounds(const: float, k: np.ndarray, amp: np.ndarray) -> tuple[float, float, float]:
    """What `_screened_zeros` needs to know of f = const + harmonics k of
    amplitudes amp: absolute rounding allowances for computed values of f
    and f', and sum k^3 |c_k|, which bounds |f'''|."""
    floor0 = 1.0e-12 * (const + float(np.sum(amp)))
    floor1 = 1.0e-12 * float(k @ amp)
    return floor0, floor1, float(k**3 @ amp)


# jet(t, orders): exact values at the points t of the derivatives of the given orders.
_Jet = Callable[[np.ndarray, tuple[int, ...]], list[np.ndarray]]


def _screened_zeros(
    jet: _Jet, start: float, w: float, closed: Sequence[np.ndarray], bounds: tuple[float, float, float]
) -> np.ndarray:
    """Sorted sign changes of f on the m cells [start + i w, start + (i + 1) w].

    closed holds f, f' and f'' at the m + 1 cell ends, jet(t, orders) gives
    exact values of derivatives of f at any points, and bounds are f's
    `_screen_bounds`.  A cell [a, b] of width w whose end values of f differ
    in sign brackets a zero, and holds no other when f' keeps its sign on
    it; a cell whose end values agree in sign holds no zero when f' keeps
    its sign on it, or when |f| exceeds the chord error there.  A zero at a
    shared end is reported by the neighbouring cell, whose end values differ
    in sign.  Both tests bound the chord error of h by w^2/8 * max |h''|
    over the cell: for h = f that maximum is at most the larger of |f''(a)|,
    |f''(b)| plus w/2 * sum k^3 |c_k| (|c_k| is the amplitude of harmonic
    k), and for h = f' it is at most sum k^3 |c_k|.  A cell on which |f|
    stays at the rounding level is settled at once, as any zeros it hides
    enclose no area.  Cells that pass no test are halved by exact
    evaluation, at most _SCREEN_LEVELS times, and then settled by the signs
    of their ends.  The brackets are refined together by Newton's method.

    The first level, the only one that spans all m cells, is screened in
    blocks of _SCREEN_BLOCK cells, so that its masks and bends stay
    block-sized; only its unsettled cells go on to the halvings.
    """
    cells = closed[0].size - 1
    brackets, kept = [], []
    for lo in range(0, cells, _SCREEN_BLOCK):
        hi = min(lo + _SCREEN_BLOCK, cells)
        # A cell is kept as its left end a and the values at both ends.
        level = (start + w * np.arange(lo, hi), *(x for v in closed for x in (v[lo:hi], v[lo + 1 : hi + 1])))
        kept.append(_screen_level(w, level, bounds, False, brackets))
    a, va, vb, sa, sb, ca, cb = (np.concatenate(x) for x in zip(*kept))
    for depth in range(1, _SCREEN_LEVELS + 1):
        if a.size == 0:
            break
        w /= 2.0
        mid = a + w
        vm, sm, cm = jet(mid, (0, 1, 2))
        level = (
            np.concatenate([a, mid]),
            np.concatenate([va, vm]), np.concatenate([vm, vb]),
            np.concatenate([sa, sm]), np.concatenate([sm, sb]),
            np.concatenate([ca, cm]), np.concatenate([cm, cb]),
        )  # fmt: skip
        a, va, vb, sa, sb, ca, cb = _screen_level(w, level, bounds, depth == _SCREEN_LEVELS, brackets)

    lo, hi, vlo, vhi = (np.concatenate(x) for x in zip(*brackets))
    return np.sort(_newton(jet, lo, hi, vlo, vhi, bounds[0]))


def _screen_level(
    w: float, level: tuple[np.ndarray, ...], bounds: tuple[float, float, float], last: bool, brackets: list
) -> list[np.ndarray]:
    """One level of `_screened_zeros`: level holds the cells of width w as
    (a, va, vb, sa, sb, ca, cb), their left ends and the values of f, f' and
    f'' at both ends.  Appends the cells that bracket one sign change to
    brackets as (a, b, f(a), f(b)), and returns the cells that no test
    settles, in the same form; on the last level every cell is settled."""
    floor0, floor1, sup3 = bounds
    a, va, vb, sa, sb, ca, cb = level
    change = (va < 0.0) != (vb < 0.0)
    bend = w * w / 8.0 * (np.maximum(np.abs(ca), np.abs(cb)) + w / 2.0 * sup3)
    clear = np.minimum(np.abs(va), np.abs(vb)) - floor0 > bend
    negligible = np.maximum(np.abs(va), np.abs(vb)) + bend <= floor0
    monotone = (sa * sb > 0.0) & (np.minimum(np.abs(sa), np.abs(sb)) - floor1 > w * w / 8.0 * sup3)
    settled = monotone | negligible | last | (clear & ~change)
    single = change & settled
    brackets.append((a[single], a[single] + w, va[single], vb[single]))
    return [x[~settled] for x in level]


def _newton(
    jet: _Jet, lo: np.ndarray, hi: np.ndarray, vlo: np.ndarray, vhi: np.ndarray, noise: float
) -> np.ndarray:
    """Refine the sign-change brackets [lo, hi] of f to its zeros, all at
    once; jet(t, orders) gives exact values of derivatives of f.

    Starts from the secant root of the end values.  An iterate on the closed
    bracket is accepted; a step out of it, or a zero derivative, is replaced
    by the bracket midpoint.  A zero is final once the step or the bracket
    is below _NEWTON_TOL, or |f| is at the rounding level `noise`.
    """
    neg_lo = vlo < 0.0
    x = lo - vlo * (hi - lo) / (vhi - vlo)
    active = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        if active.size == 0:
            break
        xa = x[active]
        value, slope = jet(xa, (0, 1))
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


def l2_norm_coeffs(p: TrigPoly) -> float:
    """||p||_2 from the coefficients: sqrt(2pi (a0/2)^2 + pi sum(a^2 + b^2))."""
    acc = TWO_PI * (p.a0 / 2.0) ** 2
    if p.degree:
        acc += math.pi * float(np.sum(p.a**2 + p.b**2))
    return math.sqrt(acc)


def l1_norm(p: TrigPoly) -> float:
    """||p||_1 of an arbitrary polynomial, exact up to rounding.

    Computed by lq_norm from the sign changes of p and its exact
    antiderivative.
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
    the m = max(_MIN_NODES, next power of two >= 4 (max(deg f, n - 1) + 1))
    uniform nodes, started from the truncation; weights |r|^(q-2)
    are clipped below at 1e-10 (they degenerate near residual zeros for
    q > 2), and for q > 2 the iterate moves a partial step 1/(q-1) toward
    the weighted solution, the classical stabilization of the method.  Each
    step solves the Hermitian Toeplitz normal equations built from one FFT
    of the weights (_weighted_fit) and samples the residual by one FFT.  The
    reported value is always lq_norm of the final residual (exact at even
    integer q, grid-doubling quadrature at other q), so a non-converged run
    still yields a valid upper bound on the infimum.
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
    m = max(_MIN_NODES, _next_pow2(4 * (max(f.degree, n - 1) + 1)))
    fvals = sample(f, m)

    def unpack(c: np.ndarray) -> TrigPoly:
        return TrigPoly(float(c[0]), c[1:n], c[n:])

    def evaluate(c: np.ndarray) -> tuple[np.ndarray, float]:
        gap = np.abs(fvals - sample(unpack(c), m))
        return gap, (TWO_PI / m * np.sum(gap**q)) ** (1.0 / q)

    coef = best_coef = np.concatenate([[truncation.a0], truncation.a, truncation.b])
    step = 1.0 if q < 2.0 else 1.0 / (q - 1.0)
    gap, best_obj = evaluate(coef)
    prev_obj = best_obj
    flat_count = 0
    for iterations in range(1, 501):
        w = np.clip(np.clip(gap, 1.0e-10, None) ** (q - 2.0), 1.0e-10, None)
        coef = coef + step * (_weighted_fit(w, fvals, n) - coef)
        gap, obj = evaluate(coef)
        if obj < best_obj:
            best_obj, best_coef = obj, coef
        flat = abs(obj - prev_obj) <= 1.0e-9 * max(obj, 1.0e-300)
        flat_count = flat_count + 1 if flat else 0
        if flat_count >= 3:
            break
        prev_obj = obj

    minimizer = unpack(best_coef)
    return BestApproxResult(lq_norm(f - minimizer, req), minimizer, iterations, flat_count >= 3)


def _weighted_fit(w: np.ndarray, fvals: np.ndarray, n: int) -> np.ndarray:
    """Coefficients (a0, a, b) of the t of degree <= n-1 minimizing
    sum w |fvals - t|^2 on the uniform nodes, len(w) >= 4n.

    With W = fft(w) and F = fft(w fvals), the normal equations in the basis
    e^{ikt}, |k| < n, are Hermitian Toeplitz, W_{j-k}.  In the real basis 1,
    cos kt, sin kt, with coefficients a0/2, a, b, they are Toeplitz plus
    Hankel.  Doubled, the sums of w cos jt cos kt, w sin jt sin kt and
    w cos jt sin kt are Re(W_{j-k} + W_{j+k}), Re(W_{j-k} - W_{j+k}) and
    -Im(W_{k-j} + W_{j+k}); those of w fvals cos jt, sin jt are 2 Re F_j, -2 Im F_j.
    """
    k = np.arange(n)
    spectrum = np.fft.fft(w)
    re, im = spectrum.real, spectrum.imag
    diff, total = np.subtract.outer(k, k), np.add.outer(k, k)
    gram = np.empty((2 * n - 1, 2 * n - 1))
    toeplitz, hankel = re[diff], re[total]
    np.add(toeplitz, hankel, out=gram[:n, :n])
    np.subtract(toeplitz[1:, 1:], hankel[1:, 1:], out=gram[n:, n:])
    cos_sin = gram[:n, n:]
    np.add(im[total[:, 1:]], im[-diff[:, 1:]], out=cos_sin)
    np.negative(cos_sin, out=cos_sin)
    gram[n:, :n] = cos_sin.T
    rhs = np.fft.rfft(w * fvals)[:n]
    solution = np.linalg.solve(gram, 2.0 * np.concatenate([rhs.real, -rhs.imag[1:]]))
    solution[0] *= 2.0
    return solution
