"""trig.deviation, the one place where f - Z(f) is formed, and the callers
that build on it: the call structure of upper_bound_estimate and the
scipy-free Power paths."""

import os
import subprocess
import sys

import numpy as np
import pytest

import zygmund.norms
import zygmund.rates
from zygmund import MethodParams, Power, TrigPoly, convolve, zygmund_sum
from zygmund.rates import upper_bound_estimate
from zygmund.trig import deviation

NS = (1, 2, 7, 64)
SS = (0.5, 1.0, 2.5)


def random_f(n, s, degree=80):
    rng = np.random.default_rng([n, round(10 * s)])
    return TrigPoly(
        1.0 + rng.uniform(), rng.uniform(-1.0, 1.0, degree), rng.uniform(-1.0, 1.0, degree)
    )


def random_phi(n, s, degree=80):
    f = random_f(n, s, degree)
    return TrigPoly(0.0, f.a, f.b)


@pytest.mark.parametrize("s", SS)
@pytest.mark.parametrize("n", NS)
class TestDeviation:
    def test_adds_back_to_f_with_the_zygmund_sum(self, n, s):
        f = random_f(n, s)
        back = deviation(f, n, s) + zygmund_sum(f, n, s)
        assert back.a0 == f.a0
        assert np.max(np.abs(back.a - f.a)) <= 1e-15
        assert np.max(np.abs(back.b - f.b)) <= 1e-15

    def test_high_harmonics_unchanged_and_constant_dropped(self, n, s):
        f = random_f(n, s)
        dev = deviation(f, n, s)
        assert dev.a0 == 0.0
        assert dev.degree == f.degree
        assert np.array_equal(dev.a[n - 1 :], f.a[n - 1 :])
        assert np.array_equal(dev.b[n - 1 :], f.b[n - 1 :])

    def test_deviation_coeffs_is_deviation_of_the_convolution(self, n, s):
        # f - Z(f) = Psi_beta * (phi - Z(phi)): both maps scale harmonic k
        # by a multiplier, so they commute up to rounding.
        phi = random_phi(n, s)
        got = deviation(convolve(Power(1.5), 0.7, phi), n, s)
        want = convolve(Power(1.5), 0.7, deviation(phi, n, s))
        assert got.a0 == want.a0 == 0.0
        np.testing.assert_allclose(got.a, want.a, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(got.b, want.b, rtol=0.0, atol=1e-15)

    def test_zygmund_factor_is_one_minus_power(self, n, s):
        f = TrigPoly(0.0, np.ones(80), np.ones(80))
        out = zygmund_sum(f, n, s)
        k = np.arange(1, min(n - 1, 80) + 1, dtype=float)
        assert np.array_equal(out.a, 1 - (k / n) ** s)
        assert np.array_equal(out.b, 1 - (k / n) ** s)


def traced_degrees(monkeypatch, n):
    """Degrees of the polynomials upper_bound_estimate hands to lq_norm, in order."""
    degrees = []
    real = zygmund.rates.lq_norm

    def spy(p, req):
        degrees.append(p.degree)
        return real(p, req)

    monkeypatch.setattr(zygmund.rates, "lq_norm", spy)
    upper_bound_estimate(Power(1.0), MethodParams(s=1.0, q=3.0), n)
    return degrees


class TestMajorantCalls:
    """One head norm, of degree n - 1 (an empty head at n = 1), then one
    norm per tail length.  perfbench/spans.py counts tail doublings as
    lq_norm calls - (n > 1) - 1, which over-counts by one at n = 1."""

    @pytest.mark.parametrize("n", [1, 16, 32])
    def test_head_then_doubling_tails(self, monkeypatch, n):
        degrees = traced_degrees(monkeypatch, n)
        assert degrees[0] == n - 1
        assert len(degrees) >= 3
        start = max(4 * n, 64)
        assert degrees[1:] == [start * 2**j for j in range(len(degrees) - 1)]

    @pytest.mark.parametrize("n, q", [(64, 3.0), (16, 4.0)])
    def test_power_of_two_tails_sample_at_most_2_16_nodes(self, monkeypatch, n, q):
        # The tail degrees d are powers of two: at q = 3 their norms start
        # on 4d nodes, and at q = 4 they take one rule on 4d nodes.  Grids
        # of more than 2^16 nodes, up to 2^20 here, go in coset batches.
        sizes = []
        real = zygmund.norms.sample

        def spy(p, m):
            sizes.append(m)
            return real(p, m)

        monkeypatch.setattr(zygmund.norms, "sample", spy)
        upper_bound_estimate(Power(1.0), MethodParams(s=1.0, q=q), n)
        assert sizes and max(sizes) <= 1 << 16


def test_power_paths_do_not_import_scipy():
    # Nor numpy.random (the unit-ball sources draw from the stdlib's random)
    # or numpy.polynomial (panel_integral's rule is _gauss_jacobi at 0).
    code = "\n".join(
        [
            "import sys",
            "from zygmund import MethodParams, Power, PowerLog, critical_integral, ratio_experiment",
            "from zygmund import unit_ball_deviations, upper_bound_estimate",
            "upper_bound_estimate(Power(1.0), MethodParams(s=1.0, q=3.0), 16)",
            "upper_bound_estimate(Power(2.0), MethodParams(s=1.0, q=3.0), 16)",
            "unit_ball_deviations(Power(1.0), MethodParams(s=1.0, q=3.0), 16, 2, 1)",
            "ratio_experiment(Power(1.0), MethodParams(s=1.0, q=2.0), [8, 16, 32, 64, 128])",
            "critical_integral(PowerLog(1.5, 1.0, 60.0), MethodParams(s=1.0, q=2.0), 64)",
            "for name in ('scipy', 'numpy.random', 'numpy.polynomial'):",
            "    assert name not in sys.modules, sorted(m for m in sys.modules if m.startswith(name))",
        ]
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
