"""Panelled Gauss-Legendre quadrature behind critical_integral, checked
against scipy's quad where quad is reliable and against independent
references where it is not, and the scipy-free runtime."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zygmund import MethodParams, PowerInvLog, PowerLog, PowerLogLog
from zygmund.errors import ConvergenceError
from zygmund.rates import critical_integral, panel_integral

ROOT = Path(__file__).resolve().parents[1]
ANALYTIC = (PowerLog(1.5, 1.0, 60.0), PowerInvLog(1.5, 1.0, 1.0), PowerLogLog(1.5, 1.0, 60.0))


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


def test_panel_integral_raises_when_sums_never_agree():
    # |x|**-1/2 on [-1, 1]: the panel sums converge like h**(1/2)
    with pytest.raises(ConvergenceError):
        panel_integral(lambda x: -0.5 * np.log(np.abs(x)), np.array([-1.0, 1.0]))


def test_runtime_needs_no_scipy(tmp_path):
    code = "\n".join(
        [
            "import sys",
            "sys.modules['scipy'] = None",
            "import numpy as np",
            "from zygmund import PowerLog, TrigPoly, cli, convolve, psi_beta_derivative",
            "argv = ['rate-check', '--config', 'perfbench/configs/wide_critical_log.cfg',",
            f"        '--out', {str(tmp_path)!r}]",
            "assert cli.main(argv) == 0",
            "psi, phi = PowerLog(1.5, 1.0, 60.0), TrigPoly(0.0, np.ones(64), np.ones(64))",
            "back = psi_beta_derivative(convolve(psi, 0.3, phi), psi, 0.3)",
            "assert np.allclose(back.a, 1.0, atol=1e-13) and np.allclose(back.b, 1.0, atol=1e-13)",
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
