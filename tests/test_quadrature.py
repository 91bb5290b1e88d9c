"""Panelled Gauss-Legendre quadrature behind critical_integral and
coefficient_tail_sum, checked against scipy's quad where quad is reliable
and against independent references where it is not, and the scipy-free
runtime."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zygmund import MethodParams, Power, PowerInvLog, PowerLog, PowerLogLog
from zygmund.errors import ConvergenceError
from zygmund.rates import critical_integral
from zygmund.trig import coefficient_tail_sum, panel_integral

ROOT = Path(__file__).resolve().parents[1]
ANALYTIC = (PowerLog(1.5, 1.0, 60.0), PowerInvLog(1.5, 1.0, 1.0), PowerLogLog(1.5, 1.0, 60.0))
# First remainder point K' = first + 8192 - 1/2 of coefficient_tail_sum.
DIRECT_TERMS = 8192


def quad_pieces(f, edges):
    quad = pytest.importorskip("scipy.integrate").quad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return math.fsum(
            quad(f, a, b, epsabs=0.0, epsrel=1.0e-13, limit=500)[0] for a, b in zip(edges, edges[1:])
        )


def critical_oracle(psi, method, n):
    """quad of g(t)**q / t in t."""
    q, gamma = method.q, method.growth_exponent

    def integrand(t):
        return math.exp(q * psi.log_value(t) + (q * gamma - 1.0) * math.log(t))

    return quad_pieces(integrand, [1.0, float(n)])


def direct_part(psi, first, power):
    ks = np.arange(first, first + DIRECT_TERMS, dtype=float)
    return float(np.sum(np.exp(power * psi.log_value(ks))))


@pytest.mark.parametrize("psi", ANALYTIC, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("n", [2, 8, 64, 1024, 16384])
def test_analytic_critical_integral_matches_quad(psi, q, n):
    method = MethodParams(s=1.0, q=q)
    assert critical_integral(psi, method, n) == pytest.approx(
        critical_oracle(psi, method, n), rel=1.0e-10
    )


@pytest.mark.parametrize(
    "c, q, n, reference",
    [(0.05, 3.0, 16384, 226.58428639951526), (1.0e-3, 2.0, 1024, 1001.3498037910969)],
)
def test_critical_integral_near_a_log_pole(c, q, n, reference):
    # psi = 1/(t**1.5 log(t + c)): the integrand t**(q/2 - 1) / log(t + c)**q
    # peaks at t = 1, c away from the pole of 1/log.  quad returns 0.42 and
    # 0.38 for these two cases.  The references are mpmath.quad at 30 digits.
    psi = PowerInvLog(1.5, 1.0, c)
    method = MethodParams(s=1.0, q=q)
    values = [critical_integral(psi, method, m) for m in (256, 1024, 4096, 16384)]
    assert values == sorted(values)
    assert critical_integral(psi, method, n) == pytest.approx(reference, rel=1.0e-12)


# p*r = 1.0005 and 1.002 stop the graded panels after 0 and 1 halvings
@pytest.mark.parametrize(
    "r, power",
    [(1.02, 1.0), (4.0 / 3.0, 1.0), (0.75, 2.0), (2.0, 1.0), (1.0, 2.0), (1.0005, 1.0), (1.002, 1.0)],
)
@pytest.mark.parametrize("first", [1, 17])
def test_power_tail_is_the_closed_form(r, power, first):
    pr = power * r
    k0 = first + DIRECT_TERMS - 0.5
    expected = direct_part(Power(r), first, power) + k0 ** (1.0 - pr) / (pr - 1.0)
    assert coefficient_tail_sum(Power(r), first, power) == pytest.approx(expected, rel=1.0e-13)


@pytest.mark.parametrize(
    "psi",
    [PowerLog(1.5, 1.0, 60.0), PowerLog(2.0, 2.0, 60.0), PowerLogLog(1.5, 1.0, 60.0)],
    ids=["PowerLog1.5", "PowerLog2", "PowerLogLog"],
)
@pytest.mark.parametrize("power", [1.0, 2.0])
@pytest.mark.parametrize("first", [1, 40])
def test_tail_matches_quad(psi, power, first):
    k0 = first + DIRECT_TERMS - 0.5

    def integrand(t):
        return math.exp(power * psi.log_value(t))

    reference = direct_part(psi, first, power) + quad_pieces(integrand, [k0, math.inf])
    assert coefficient_tail_sum(psi, first, power) == pytest.approx(reference, rel=1.0e-10)


def power_log_tail_beyond(a, m, u):
    """int_u^inf v**m e**(-a v) dv, which is int_{e**u}^inf psi(t) dt for
    psi = log(t + c)**m / t**(1 + a) once c / t is below rounding."""
    return math.exp(-a * u) * sum(
        math.factorial(m) / math.factorial(m - j) * u ** (m - j) / a ** (j + 1) for j in range(m + 1)
    )


@pytest.mark.parametrize(
    "psi, beyond",
    [
        # below e**(-35)/35 of the remainder
        (PowerInvLog(1.05, 1.0, 1.0), 0.0),
        (PowerLog(1.02, 1.0, 60.0), power_log_tail_beyond(0.02, 1, 700.0)),
        (PowerLog(1.02, 2.0, 200.0), power_log_tail_beyond(0.02, 2, 700.0)),
    ],
    ids=["PowerInvLog1.05", "PowerLog1.02", "PowerLog1.02-alpha2"],
)
@pytest.mark.parametrize("first", [1, 11, 100])
def test_near_divergent_tail_matches_a_log_variable_reference(psi, beyond, first):
    # The reference integrates psi(e**u) e**u du by a 20-point rule on panels
    # of width 1/4 up to u = 700, where t = e**u still is a float, and adds
    # the rest in closed form.
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.append(np.arange(math.log(first + DIRECT_TERMS - 0.5), 700.0, 0.25), 700.0)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    u = mid[:, None] + half[:, None] * x
    reference = float(np.sum(half * (np.exp(psi.log_value(np.exp(u)) + u) @ w))) + beyond
    direct = direct_part(psi, first, 1.0)
    assert coefficient_tail_sum(psi, first) - direct == pytest.approx(reference, rel=1.0e-12)


def test_panel_integral_raises_when_sums_never_agree():
    # |x|**-1/2 on [-1, 1]: the panel sums converge like h**(1/2)
    with pytest.raises(ConvergenceError):
        panel_integral(lambda x: -0.5 * np.log(np.abs(x)), np.array([-1.0, 1.0]))


def test_runtime_needs_no_scipy(tmp_path):
    code = "\n".join(
        [
            "import sys",
            "sys.modules['scipy'] = None",
            "from zygmund import KernelSpec, PowerLog, cli, kernel_poly",
            "argv = ['rate-check', '--config', 'perfbench/configs/wide_critical_log.cfg',",
            f"        '--out', {str(tmp_path)!r}]",
            "assert cli.main(argv) == 0",
            "_, tail = kernel_poly(KernelSpec(psi=PowerLog(1.5, 1.0, 60.0), beta=0.0, length=64))",
            "assert 0.0 < tail < float('inf'), tail",
        ]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "rate_report.csv").exists()


def test_no_source_file_names_scipy():
    package = ROOT / "src" / "zygmund"
    files = [p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert files
    assert [p.name for p in files if "scipy" in p.read_text()] == []
