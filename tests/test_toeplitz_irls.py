"""Best approximation by IRLS with normal equations read from one FFT.

Each IRLS step of best_approx solves the weighted normal equations, whose
matrix in the harmonics below n is Toeplitz plus Hankel with entries taken
from the DFT of the weights, and samples the new residual by one FFT.  The
oracle below is the dense solver best_approx used before: an m x (2n - 1)
cosine/sine basis and one np.linalg.lstsq per step, on the same grid, with
the same start, clipping, partial step and stop rule.
"""

import math

import numpy as np
import pytest

from zygmund.decay import MethodParams, Power
from zygmund.norms import (
    BestApproxResult,
    NormRequest,
    _next_pow2,
    _weighted_fit,
    best_approx,
    lq_norm,
)
from zygmund.trig import TrigPoly, sample
from zygmund.witness import WitnessConfig, build_witness

TWO_PI = 2.0 * math.pi
QS = [1.1, 1.2, 1.5, 2.5, 3.0, 4.0, 6.0]
NS = [1, 2, 8, 64, 128]


def dense_best_approx(f, n, req):
    """IRLS with a dense basis matrix and np.linalg.lstsq at every step."""
    truncation = f.truncated(n - 1).padded(n - 1)
    q = req.q
    d = max(f.degree, n - 1)
    m = max(512, _next_pow2(4 * (d + 1)))
    fvals = sample(f, m)
    nodes = TWO_PI * np.arange(m) / m

    ncols = 2 * (n - 1) + 1
    basis = np.empty((m, ncols))
    basis[:, 0] = 0.5
    if n > 1:
        k = np.arange(1, n, dtype=float)
        phase = np.multiply.outer(nodes, k)
        basis[:, 1:n] = np.cos(phase)
        basis[:, n:] = np.sin(phase)

    def unpack(c):
        if n == 1:
            return TrigPoly.constant(float(c[0]))
        return TrigPoly(float(c[0]), c[1:n].copy(), c[n:].copy())

    def objective(resid):
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
    return BestApproxResult(value=value, minimizer=minimizer, iterations=iterations, converged=converged)


def random_f(q, n):
    rng = np.random.default_rng([round(10 * q), n])
    k = np.arange(1, n + 3)
    return TrigPoly(rng.standard_normal(), rng.standard_normal(k.size) / k, rng.standard_normal(k.size) / k)


def witness_f(q, n):
    cfg = WitnessConfig(psi=Power(1.0), method=MethodParams(s=1.0, q=q), n=n)
    return build_witness(cfg).f


def assert_matches_oracle(f, n, q):
    req = NormRequest(q=q)
    got, want = best_approx(f, n, req), dense_best_approx(f, n, req)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.value == pytest.approx(want.value, rel=1e-9)
    assert got.minimizer.degree == want.minimizer.degree == n - 1


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("q", QS)
def test_random_f_matches_dense_oracle(q, n):
    assert_matches_oracle(random_f(q, n), n, q)


@pytest.mark.parametrize("n", [n for n in NS if n >= 2])
@pytest.mark.parametrize("q", QS)
def test_witness_f_matches_dense_oracle(q, n):
    assert_matches_oracle(witness_f(q, n), n, q)


def test_sensitive_case_agrees_to_the_oracle_spread():
    # At q = 1.1, full IRLS steps amplify rounding about tenfold per step, so
    # near the optimum the last digits and the step at which three flat
    # steps occur depend on summation order: the dense oracle changes its
    # iteration count when a0 moves by 1e-15 relative, and its values then
    # spread by several 1e-9.  Here the comparison holds to 1e-8 only.
    rng = np.random.default_rng(0)
    k = np.arange(1, 6)
    f = TrigPoly(rng.standard_normal(), rng.standard_normal(5) / k, rng.standard_normal(5) / k)
    req = NormRequest(q=1.1)
    shifts = (0.0, 1e-15, -1e-15, 2e-15, -2e-15)
    oracle = [dense_best_approx(TrigPoly(f.a0 * (1.0 + e), f.a, f.b), 1, req) for e in shifts]
    assert len({r.iterations for r in oracle}) > 1
    got = best_approx(f, 1, req)
    assert got.converged and all(r.converged for r in oracle)
    assert got.value == pytest.approx(oracle[0].value, rel=1e-8)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_weighted_fit_matches_lstsq(n):
    rng = np.random.default_rng(n)
    m = _next_pow2(4 * n + 4)
    w = np.exp(3.0 * rng.standard_normal(m))
    fvals = rng.standard_normal(m)
    nodes = TWO_PI * np.arange(m) / m
    phase = np.multiply.outer(nodes, np.arange(1, n))
    basis = np.hstack([np.full((m, 1), 0.5), np.cos(phase), np.sin(phase)])
    sw = np.sqrt(w)
    want, *_ = np.linalg.lstsq(basis * sw[:, None], fvals * sw, rcond=None)
    got = _weighted_fit(w, fvals, n)
    assert np.allclose(got, want, rtol=0.0, atol=1e-10 * np.max(np.abs(want)))


@pytest.mark.parametrize("q", [1.2, 3.0])
def test_never_calls_lstsq(q, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("best_approx must not call np.linalg.lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    res = best_approx(witness_f(q, 16), 16, NormRequest(q=q))
    assert res.converged and res.iterations > 0
