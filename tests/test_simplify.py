"""Seams shared across modules: the phase-rotation builder, the kernel
builder that convolution and its inverse read, the derivative as a Fourier
multiplier, the shift, the majorant's empty head, one regime
classification per experiment, one rate law, whose regime split is the
Weyl–Nagy case split of the pure powers, public names that resolve, no
module-level import that its module never reads, no config field that the
CLI never reads, a rate report that stores only what it was given, no
public name that only tests read, and no module-level name assigned in two
modules."""

import ast
import dataclasses
import importlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zygmund
import zygmund.cli
import zygmund.rates
import zygmund.trig
from zygmund.config import ExperimentConfig
from zygmund.decay import MethodParams, Power, PowerLog, Regime, classify_regime
from zygmund.errors import ParameterError
from zygmund.rates import (
    best_vs_method_experiment,
    ratio_experiment,
    theoretical_rate,
    upper_bound_estimate,
)
from zygmund.trig import (
    TrigPoly,
    _derivative,
    _times,
    convolve,
    kernel_poly,
    phased_poly,
    psi_beta_derivative,
)

SRC = Path(zygmund.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def classify_calls(monkeypatch):
    calls = []

    def counting(psi, method):
        calls.append((psi, method))
        return classify_regime(psi, method)

    monkeypatch.setattr(zygmund.rates, "classify_regime", counting)
    monkeypatch.setattr(zygmund.cli, "classify_regime", counting)
    return calls


class TestOneClassification:
    def test_ratio_experiment_classifies_once(self, classify_calls):
        ratio_experiment(Power(1.0), MethodParams(s=1.0, q=2.0), [4, 8, 16, 32, 64])
        assert len(classify_calls) == 1

    def test_rate_check_classifies_once(self, classify_calls, tmp_path, capsys):
        config = tmp_path / "growing.cfg"
        config.write_text("psi.family = power\npsi.r = 1.0\nmethod.s = 1.0\nmethod.q = 2.0\nn_grid = 4 8 16 32 64\n")
        assert zygmund.cli.main(["rate-check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "regime=growing" in capsys.readouterr().out
        assert len(classify_calls) == 1

    def test_theoretical_rate_classifies_once(self, classify_calls):
        theoretical_rate(Power(1.5), MethodParams(s=1.0, q=2.0), 16)
        assert len(classify_calls) == 1

    def test_best_vs_method_experiment_classifies_once(self, classify_calls):
        best_vs_method_experiment(Power(1.0), MethodParams(s=1.0, q=2.0), [4, 8, 16, 32, 64])
        assert len(classify_calls) == 1


class TestOneRateLaw:
    @pytest.mark.parametrize(
        "r,regime",
        [(1.0, Regime.GROWING), (1.5, Regime.CRITICAL), (2.5, Regime.DECAYING)],
    )
    def test_ratio_experiment_tabulates_theoretical_rate(self, r, regime):
        m = MethodParams(s=1.0, q=2.0)
        report = ratio_experiment(Power(r), m, [4, 8, 16, 32, 64])
        assert report.regime.regime is regime
        expected = tuple(theoretical_rate(Power(r), m, n) for n in report.n_grid)
        assert report.upper_rates == expected


class TestPhasedPoly:
    def test_harmonics_below_first_k_are_zero(self):
        p = phased_poly(np.arange(1.0, 6.0), 0.7, first_k=4)
        assert p.degree == 8 and p.a0 == 0.0
        assert np.all(p.a[:3] == 0.0) and np.all(p.b[:3] == 0.0)
        assert np.all(p.a[3:] != 0.0) and np.all(p.b[3:] != 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("first_k", [1, 3])
    def test_values_match_rotated_cosine_sum(self, beta, first_k):
        amp = np.random.default_rng(11).standard_normal(7)
        p = phased_poly(amp, beta, first_k=first_k)
        t = np.linspace(-math.pi, math.pi, 97)
        ks = np.arange(first_k, first_k + amp.size)
        expected = sum(a * np.cos(k * t - beta * math.pi / 2.0) for a, k in zip(amp, ks))
        np.testing.assert_allclose(p(t), expected, rtol=0.0, atol=1.0e-13)

    @pytest.mark.parametrize("lo,hi,weight_s", [(1, 15, 1.0), (16, 64, 0.0), (5, 5, 2.0)])
    def test_matches_band_construction_bitwise(self, lo, hi, weight_s):
        # the band form the majorant's head and tail were once built with
        psi, beta = Power(1.0), 0.5
        k = np.arange(lo, hi + 1, dtype=float)
        amp = np.asarray(psi(k), dtype=float) * k**weight_s
        a, b = np.zeros(hi), np.zeros(hi)
        a[lo - 1 :] = amp * math.cos(beta * math.pi / 2.0)
        b[lo - 1 :] = amp * math.sin(beta * math.pi / 2.0)
        band = TrigPoly(0.0, a, b)
        p = phased_poly(amp, beta, first_k=lo)
        assert np.array_equal(p.a, band.a) and np.array_equal(p.b, band.b)

    def test_rejects_first_k_below_one(self):
        with pytest.raises(ParameterError):
            phased_poly(np.ones(3), 0.0, first_k=0)


class TestKernelPoly:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("first,last", [(1, 0), (1, 7), (8, 64)])
    def test_is_phased_poly_of_psi_bitwise(self, first, last, beta):
        psi = Power(1.0)
        p = kernel_poly(psi, beta, last, first)
        want = phased_poly(psi(np.arange(first, last + 1.0)), beta, first)
        assert p.degree == want.degree == last and p.a0 == want.a0 == 0.0
        assert np.array_equal(p.a, want.a) and np.array_equal(p.b, want.b)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0, 2.0, 3.0, 5.0])
    def test_exact_quadrants_at_integer_beta(self, beta):
        # cos and sin of beta pi/2 exactly: a sine kernel has a = 0 (odd
        # beta), a cosine kernel b = 0, and the other part is +-psi(k).
        psi = Power(1.0)
        p = kernel_poly(psi, beta, 8)
        amp = psi(np.arange(1.0, 9.0))
        cos, sin = {0: (1.0, 0.0), 1: (0.0, 1.0), 2: (-1.0, 0.0), 3: (0.0, -1.0)}[int(beta) % 4]
        assert np.array_equal(p.a, cos * amp) and np.array_equal(p.b, sin * amp)

    def test_sine_kernel_is_odd_and_beta_2_cosine_is_even(self):
        assert np.all(kernel_poly(Power(1.0), 1.0, 8).a == 0.0)
        assert np.all(kernel_poly(Power(1.0), 2.0, 8).b == 0.0)


def rotation_convolve(psi, beta, phi):
    # the hand-written rotation convolve was once built with
    psi_k = np.asarray(psi(np.arange(1, phi.degree + 1, dtype=float)), dtype=float)
    c, s = math.cos(beta * math.pi / 2.0), math.sin(beta * math.pi / 2.0)
    return psi_k * (phi.a * c - phi.b * s), psi_k * (phi.a * s + phi.b * c)


CONVOLVE_PROFILES = [Power(1.0), Power(2.5), PowerLog(1.5, 1, 60)]


class TestConvolutionMultiplier:
    def test_convolution_pair_reads_kernel_poly(self, monkeypatch):
        calls = []

        def spy(psi, beta, last_k, first_k=1):
            calls.append((beta, last_k, first_k))
            return kernel_poly(psi, beta, last_k, first_k)

        monkeypatch.setattr(zygmund.trig, "kernel_poly", spy)
        phi = TrigPoly(0.0, [1.0, -2.0, 0.5], [0.25, 1.0, -1.0])
        f = convolve(Power(1.0), 0.7, phi)
        assert calls == [(0.7, 3, 1)]
        psi_beta_derivative(f, Power(1.0), 0.7)
        assert calls == [(0.7, 3, 1)] * 2
        assert not hasattr(zygmund.trig, "_kernel_harmonics")

    @pytest.mark.parametrize("psi", CONVOLVE_PROFILES, ids=repr)
    @pytest.mark.parametrize("degree", [1, 64, 2047])
    def test_rotation_formula_bitwise_at_beta_0(self, psi, degree):
        rng = np.random.default_rng(degree)
        phi = TrigPoly(0.0, rng.standard_normal(degree), rng.standard_normal(degree))
        a, b = rotation_convolve(psi, 0.0, phi)
        f = convolve(psi, 0.0, phi)
        assert f.a0 == 0.0 and np.array_equal(f.a, a) and np.array_equal(f.b, b)

    @pytest.mark.parametrize("psi", CONVOLVE_PROFILES, ids=repr)
    @pytest.mark.parametrize("degree", [1, 64, 2047])
    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.0, 3.0])
    def test_rotation_formula_at_other_beta(self, psi, degree, beta):
        # Relative to the largest coefficient: where the rotation cancels,
        # one coefficient's relative gap can reach 1e-13.
        rng = np.random.default_rng(degree)
        phi = TrigPoly(0.0, rng.standard_normal(degree), rng.standard_normal(degree))
        a, b = rotation_convolve(psi, beta, phi)
        f = convolve(psi, beta, phi)
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
        gap = max(np.max(np.abs(f.a - a)), np.max(np.abs(f.b - b)))
        assert gap <= 1.0e-15 * scale


class TestDerivativeMultiplier:
    @pytest.mark.parametrize("order", [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize("degree", [1, 7, 4096])
    def test_swap_loop_formula(self, order, degree):
        # the swap loop _derivative was once built with
        rng = np.random.default_rng(degree)
        p = TrigPoly(rng.standard_normal(), rng.standard_normal(degree), rng.standard_normal(degree))
        k = np.arange(1, degree + 1, dtype=float) ** order
        a, b = k * p.a, k * p.b
        for _ in range(order % 4):
            a, b = b, -a
        got = _derivative(p, order)
        assert got.a0 == 0.0 and np.array_equal(got.a, a) and np.array_equal(got.b, b)


class TestShifted:
    @pytest.mark.parametrize("seed", range(4))
    def test_values_are_those_at_shifted_points(self, seed):
        # The shift is a multiplier: p(t + h) - a0/2 is _times(p, e^{ikh}).
        rng = np.random.default_rng(seed)
        p = TrigPoly(rng.standard_normal(), rng.standard_normal(25), rng.standard_normal(25))
        h = rng.uniform(-10.0, 10.0)
        t = rng.uniform(0.0, 2.0 * math.pi, 50)
        got = _times(p, np.exp(1j * h * np.arange(1, p.degree + 1)))(t)
        np.testing.assert_allclose(got, p(t + h) - p.a0 / 2.0, rtol=0.0, atol=1.0e-12)


class TestMajorantKernel:
    @pytest.mark.parametrize(
        "q,value",
        [(1.5, 0.8271067246378819), (3.0, 0.7419979980502153), (4.0, 0.8386955747750753)],
    )
    def test_empty_head_at_n_1(self, q, value):
        # n = 1 leaves no harmonic below n: the head is the zero polynomial
        majorant = upper_bound_estimate(Power(1.0), MethodParams(s=1.0, q=q), 1)
        assert majorant == pytest.approx(value, rel=1e-9)

    def test_peak_memory_at_q_3(self):
        # The tails reach degree 2^17.  Their norms build no shift of the
        # tail and hold no degree-sized complex array: the doublings sum
        # their midpoints as offset cosets, folded from views of the tail.
        method = MethodParams(s=1.0, q=3.0)
        upper_bound_estimate(Power(1.0), method, 4)  # first-call allocations
        tracemalloc.start()
        try:
            upper_bound_estimate(Power(1.0), method, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11.5e6


class TestWeylNagyCase:
    """classify_regime on Power(r) is the Weyl–Nagy split at r = s + 1 - 1/q."""

    S, Q = 1.0, 2.0
    BOUNDARY = S + 1.0 - 1.0 / Q

    def regime(self, r):
        return classify_regime(Power(r), MethodParams(s=self.S, q=self.Q)).regime

    @pytest.mark.parametrize("offset", [-5.0e-13, 0.0, 5.0e-13])
    def test_boundary_tolerance_gives_case_two(self, offset):
        assert self.regime(self.BOUNDARY + offset) is Regime.CRITICAL

    def test_outside_tolerance(self):
        assert self.regime(self.BOUNDARY - 1.0e-9) is Regime.GROWING
        assert self.regime(self.BOUNDARY + 1.0e-9) is Regime.DECAYING


@pytest.mark.parametrize(
    "module", ["zygmund", "zygmund.trig", "zygmund.rates", "zygmund.witness", "zygmund.norms", "zygmund.decay"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def unused_imports(source):
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it appears as a name anywhere in the module
    (attribute roots included) or is listed in a literal `__all__`.
    """
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read - exported)


def test_unused_import_check_sees_unread_names():
    source = "import os\nimport numpy.linalg\nfrom typing import Tuple, List as L\n__all__ = ['L']\nprint(numpy)\n"
    assert unused_imports(source) == ["Tuple", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def cli_config_reads(source):
    """Fields read off `cfg` in the CLI source: as `cfg.<field>`, or through
    `cfg.require_<field>()`."""
    return {
        node.attr.removeprefix("require_")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cfg"
    }


def test_config_read_check_sees_both_forms():
    source = "def f(cfg):\n    return cfg.psi, cfg.require_n_grid(), other.seed\n"
    assert cli_config_reads(source) == {"psi", "n_grid"}


def test_every_config_field_is_read_by_the_cli():
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert fields - cli_config_reads((SRC / "cli.py").read_text(encoding="utf-8")) == set()


def test_rate_report_stores_only_its_inputs():
    fields = [field.name for field in dataclasses.fields(zygmund.rates.RateReport)]
    assert fields == ["n_grid", "regime", "deviations", "lower_bounds", "upper_rates", "band_limit"]
    for name in ("spread", "lower_spread", "failures", "verdict"):
        assert isinstance(getattr(zygmund.rates.RateReport, name), property)


def reads_outside_own_definition(source):
    """Names a module reads, as a loaded name or an attribute, anywhere but
    in the top-level function or class that defines the same name; imports
    and `__all__` strings are not reads."""
    reads = set()
    for top in ast.parse(source).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
        reads |= names - {getattr(top, "name", None)}
    return reads


def test_read_check_skips_own_definition_imports_and_all():
    source = (
        "from os import path\n__all__ = ['f', 'g']\n"
        "def e():\n    return g\n"
        "def f():\n    return f()\n"
        "def g():\n    return f, mod.h\n"
        "class C:\n    def m(self):\n        return C\n"
        "x.y = 1\n"
    )
    assert reads_outside_own_definition(source) == {"g", "f", "mod", "h", "x"}


# from_samples has no caller yet: ROADMAP item 3 reads the dual value's
# coefficients off its samples with it.
UNCALLED_BY_DESIGN = {"from_samples"}


def test_every_public_name_has_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    for pattern in ("demos/*.py", "perfbench/*.py"):
        sources += [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob(pattern))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    reads = set().union(*(reads_outside_own_definition(source) for source in sources + blocks))
    public = set()
    for path in SRC.glob("*.py"):
        module = importlib.import_module("zygmund" if path.stem == "__init__" else f"zygmund.{path.stem}")
        # dunders such as __version__ are metadata, not API with callers
        public |= {name for name in getattr(module, "__all__", ()) if not name.startswith("__")}
    assert sorted(public - reads - UNCALLED_BY_DESIGN) == []


def module_level_assignments(source):
    """Names bound by top-level assignments of a module, `__all__` aside."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                names.add(target.id)
    return names


def test_assignment_scan_sees_plain_and_annotated_names():
    source = "__all__ = ['f']\nA = B = 1\nC: int = 2\ndef f():\n    D = 3\nfor E in ():\n    pass\n"
    assert module_level_assignments(source) == {"A", "B", "C"}


def test_no_module_level_name_assigned_in_two_modules():
    seen = {}
    for path in sorted(SRC.glob("*.py")):
        for name in module_level_assignments(path.read_text(encoding="utf-8")):
            seen.setdefault(name, []).append(path.name)
    assert {name: files for name, files in seen.items() if len(files) > 1} == {}
