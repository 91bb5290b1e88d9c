"""Seams shared across modules: the phase-rotation builder, one regime
classification per experiment, one rate law, whose regime split is the
Weyl–Nagy case split of the pure powers, public names that resolve, no
module-level import that its module never reads, no config field that the
CLI never reads, a rate report that stores only what it was given, and no
public name that only tests read."""

import ast
import dataclasses
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import zygmund
import zygmund.cli
import zygmund.rates
from zygmund.config import ExperimentConfig
from zygmund.decay import MethodParams, Power, Regime, classify_regime
from zygmund.errors import ParameterError
from zygmund.rates import (
    best_vs_method_experiment,
    ratio_experiment,
    theoretical_rate,
)
from zygmund.trig import TrigPoly, phased_poly

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
