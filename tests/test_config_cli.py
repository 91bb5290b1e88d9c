import argparse
from pathlib import Path

import pytest

from oracles import read_trig_poly_csv
from zygmund import cli, config, witness
from zygmund.cli import main, trig_poly_csv
from zygmund.config import build_psi, parse_config
from zygmund.decay import Power, PowerLog
from zygmund.errors import ConfigError
from zygmund.trig import TrigPoly, max_coeff_diff
from zygmund.witness import WitnessConfig, build_witness

ROOT = Path(__file__).resolve().parents[1]
GROWING = str(ROOT / "demos" / "configs" / "growing.cfg")
RATE_Q4 = str(ROOT / "perfbench" / "configs" / "rate_q4.cfg")
CRITICAL_WIDE = str(ROOT / "demos" / "configs" / "critical_wide.cfg")

BASE = """
# growing-regime experiment
psi.family = power
psi.r = 1.0
method.s = 1.0
method.q = 2.0
method.beta = 0.0
n_grid = 4 8 16 32 64
band_limit = 4.0
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_round_trip_fields(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        assert isinstance(cfg.psi, Power) and cfg.psi.r == 1.0
        assert cfg.method.s == 1.0 and cfg.method.q == 2.0
        assert cfg.n_grid == (4, 8, 16, 32, 64)
        assert cfg.band_limit == 4.0
        assert cfg.output_dir.name == "out"

    def test_camel_case_aliases(self, tmp_path):
        text = BASE.replace("n_grid", "nGrid").replace("band_limit", "bandLimit")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.n_grid == (4, 8, 16, 32, 64)
        assert cfg.band_limit == 4.0

    def test_invalid_q_names_the_field(self, tmp_path):
        path = write_config(tmp_path, BASE.replace("method.q = 2.0", "method.q = 1.0"))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "method.q"

    def test_empty_grid_rejected_with_line(self, tmp_path):
        path = write_config(tmp_path, BASE.replace("n_grid = 4 8 16 32 64", "n_grid ="))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "n_grid"
        assert err.value.line is not None

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE + "method.p = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "method.p"

    def test_seed_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE + "seed = 7\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "seed"
        assert str(err.value).endswith(": unknown key")

    def test_missing_family(self, tmp_path):
        path = write_config(tmp_path, "method.s = 1\nmethod.q = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "psi.family"

    def test_log_family_requires_alpha_and_c(self):
        with pytest.raises(ConfigError) as err:
            build_psi("power_log", 1.0, None, 60.0)
        assert err.value.field == "psi.alpha"
        psi = build_psi("power_log", 1.0, 1.0, 60.0)
        assert isinstance(psi, PowerLog)

    def test_default_band_limit_loosens_for_log_families(self, tmp_path):
        text = """
psi.family = power_log
psi.r = 1.0
psi.alpha = 1.0
psi.c = 60.0
method.s = 1.0
method.q = 2.0
"""
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.band_limit == 6.0


    @pytest.mark.parametrize(
        "key", [key for key, kind in config._KEYS.items() if kind is float or isinstance(kind, tuple)]
    )
    def test_bad_value_names_its_key_and_line(self, tmp_path, key):
        # "4 x" is neither a number nor a list of numbers.
        lines = [line for line in BASE.strip().splitlines() if not line.startswith(f"{key} =")]
        lines.insert(2, f"{key} = 4 x")
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, "\n".join(lines) + "\n"))
        assert (err.value.field, err.value.line) == (key, 3)

    def test_docstring_key_table_names_every_key(self):
        # The table's rows are indented four spaces, continuations further.
        rows = [line for line in config.__doc__.splitlines() if line.startswith("    ") and line[4] != " "]
        assert [row.split()[0] for row in rows] == list(config._KEYS)


class TestPolySerialization:
    def test_round_trip(self):
        p = TrigPoly(0.125, [1.0, -0.25, 1e-17], [0.0, 3.5, -2.0])
        assert max_coeff_diff(read_trig_poly_csv(trig_poly_csv(p)), p) == 0.0

    def test_header_carries_a0(self):
        text = trig_poly_csv(TrigPoly(2.0, [1.0], [0.0]))
        lines = text.splitlines()
        assert lines[0] == "a0,2.0"
        assert lines[1] == "k,a_k,b_k"


class TestCli:
    def test_classify_output(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["classify", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "regime     : growing" in out
        assert "theta(q'=2) : true" in out
        assert "doubling   : K=2\n" in out
        assert "bounded=" not in out

    def test_seed_flag_accepted_and_ignored(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["classify", "--config", str(path)]) == 0
        plain = capsys.readouterr().out
        assert main(["classify", "--config", str(path), "--seed", "3"]) == 0
        assert capsys.readouterr().out == plain

    def test_classify_critical_label(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE.replace("psi.r = 1.0", "psi.r = 1.5"))
        assert main(["classify", "--config", str(path)]) == 0
        assert "regime     : critical" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE.replace("method.q = 2.0", "method.q = 1.0"))
        assert main(["classify", "--config", str(path)]) == 2
        assert "method.q" in capsys.readouterr().err

    def test_rate_check_writes_csv_and_is_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["rate-check", "--config", str(path), "--out", str(out_a)]) == 0
        assert "BANDED within" in capsys.readouterr().out
        assert main(["rate-check", "--config", str(path), "--out", str(out_b)]) == 0
        csv_a = (out_a / "rate_report.csv").read_bytes()
        csv_b = (out_b / "rate_report.csv").read_bytes()
        assert csv_a == csv_b
        header = csv_a.decode().splitlines()[0]
        assert header == "n,deviation,lower_bound,upper_rate,ratio"
        # plot-data companions: two whitespace-separated columns per line
        for name in ("deviation", "lower_bound", "upper_rate"):
            rows = (out_a / f"{name}.dat").read_text().strip().splitlines()
            assert len(rows) == 5
            n, value = rows[0].split()
            assert int(n) == 4 and float(value) > 0.0

    def test_rate_report_csv_shape(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["rate-check", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
        lines = (tmp_path / "r" / "rate_report.csv").read_text().splitlines()
        assert lines[0] == "n,deviation,lower_bound,upper_rate,ratio"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [4, 8, 16, 32, 64]
        for line in lines[1:]:
            _, dev, _, rate, ratio = map(float, line.split(","))
            assert dev / rate == ratio

    def test_rate_check_saturating_regime(self, tmp_path, capsys):
        text = BASE.replace("psi.r = 1.0", "psi.r = 2.5").replace(
            "n_grid = 4 8 16 32 64", "n_grid = 8 16 32 64 128"
        )
        path = write_config(tmp_path, text)
        assert main(["rate-check", "--config", str(path), "--out", str(tmp_path / "sat")]) == 0
        out = capsys.readouterr().out
        assert "BANDED" in out and "regime=decaying" in out
        # rate is n**-s here, so the ratio column is deviation * n**s
        rows = (tmp_path / "sat" / "rate_report.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            n, dev, lower, rate, ratio = row.split(",")
            assert float(ratio) == pytest.approx(float(dev) * int(n), rel=1e-12)
            assert float(lower) <= float(dev)

    def test_witness_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "w"
        assert main(["witness", "--config", str(path), "--out", str(out), "--n", "8"]) == 0
        text = (out / "witness.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "n,alpha0,I_closed,I_quadrature,lower_bound,deviation"
        row = lines[1].split(",")
        res = build_witness(WitnessConfig(psi=Power(1.0), method=parse_config(path).method, n=8))
        assert float(row[1]) == pytest.approx(res.alpha0, rel=1e-12)
        assert row[2:4] == [repr(res.pairing), repr(res.pairing_quadrature)]
        assert float(row[5]) == pytest.approx(res.deviation, rel=1e-12)
        phi = read_trig_poly_csv((out / "witness_phi.csv").read_text())
        assert max_coeff_diff(phi, res.phi) == 0.0
        assert (out / "witness_f.csv").exists()
        dual = read_trig_poly_csv((out / "witness_dual.csv").read_text())
        assert max_coeff_diff(dual, res.dual) == 0.0

    def test_witness_builds_each_part_once(self, tmp_path, capsys, monkeypatch):
        calls = {}

        def spy(name):
            original = getattr(witness, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(witness, name, counted)

        # the closed-form pairing and the dual share one g(1..n - 1)
        for name in ("calibrate_alpha0", "_witness_direct", "dual_test_poly", "growth_function"):
            spy(name)
        path = write_config(tmp_path, BASE)
        assert main(["witness", "--config", str(path), "--out", str(tmp_path / "w"), "--n", "64"]) == 0
        assert calls == {"calibrate_alpha0": 1, "_witness_direct": 1, "dual_test_poly": 1, "growth_function": 1}

    def test_witness_pairing_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        original = witness.dual_test_poly
        monkeypatch.setattr(witness, "dual_test_poly", lambda method, g: 2.0 * original(method, g))
        path = write_config(tmp_path, BASE)
        out = tmp_path / "w"
        assert main(["witness", "--config", str(path), "--out", str(out), "--n", "8"]) == 1
        assert "closed form" in capsys.readouterr().err
        assert not (out / "witness.csv").exists()

    def test_witness_below_order_two_rejected_up_front(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "w1"
        assert main(["witness", "--config", str(path), "--out", str(out), "--n", "1"]) == 2
        assert "'n'" in capsys.readouterr().err
        assert not (out / "witness.csv").exists()

    def test_table_vnad_rows_and_rejection(self, tmp_path, capsys):
        text = BASE.replace("n_grid = 4 8 16 32 64", "n_grid = 8 16 32 64 128") + "r_list = 0.75 1.5 2.5\n"
        path = write_config(tmp_path, text)
        assert main(["table-vnad", "--config", str(path), "--out", str(tmp_path / "t")]) == 0
        out = capsys.readouterr().out
        assert "case1" in out and "case2" in out and "case3" in out
        csv = (tmp_path / "t" / "vnad_table.csv").read_text()
        assert csv.splitlines()[0] == "r,case,band,slope,slope_theory,verdict"

        bad = write_config(tmp_path, text + "\n", name="bad.cfg")
        bad.write_text(text.replace("r_list = 0.75 1.5 2.5", "r_list = 0.4 1.5"), encoding="utf-8")
        assert main(["table-vnad", "--config", str(bad), "--out", str(tmp_path / "t2")]) == 1
        assert "requires r>1-1/q" in capsys.readouterr().out

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_table_vnad_case_two_at_non_dyadic_boundary(self, tmp_path, capsys, q):
        # r = s + 1 - 1/q, also written to 15 decimals, reads as the critical case.
        r = 1.0 + 1.0 - 1.0 / q
        text = BASE.replace("method.q = 2.0", f"method.q = {q!r}") + f"r_list = {r!r} {r:.15f}\n"
        path = write_config(tmp_path, text)
        main(["table-vnad", "--config", str(path), "--out", str(tmp_path / "t")])
        rows = (tmp_path / "t" / "vnad_table.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["case2", "case2"]
        assert "case2" in capsys.readouterr().out

    def test_best_approx_command(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE.replace("n_grid = 4 8 16 32 64", "n_grid = 8 16 32 64 128"))
        out = tmp_path / "ba"
        assert main(["best-approx", "--config", str(path), "--out", str(out)]) == 0
        assert "BANDED" in capsys.readouterr().out
        lines = (out / "best_vs_method.csv").read_text().strip().splitlines()
        assert lines[0] == "n,best_value,zygmund_deviation,rate,best_ratio,zygmund_ratio"
        for row in lines[1:]:
            cells = row.split(",")
            assert float(cells[1]) <= float(cells[2]) * (1.0 + 1e-9)

    def test_best_approx_honours_band_limit_override(self, tmp_path, capsys):
        # growing.cfg's deviation/rate spread is about 1.095, above 1.01
        argv = ["best-approx", "--config", GROWING, "--band-limit", "1.01", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "NOT BANDED: deviation/rate spread 1.095 exceeds limit 1.01; "
            "best/rate spread 1.271 exceeds limit 1.01 over n in [8..256]\n"
        )

    def test_rate_check_failure_names_the_failed_condition(self, tmp_path, capsys):
        # at q = 4 the deviation/rate spread (1.067) holds under 1.2 and the
        # lower/rate spread (1.338) does not
        argv = ["rate-check", "--config", RATE_Q4, "--band-limit", "1.2", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "NOT BANDED: lower/rate spread 1.338 exceeds limit 1.2 over n in [8..256] (regime=growing)\n"
        )

    def test_rate_check_at_q2_reaches_order_16384(self, tmp_path, capsys):
        assert main(["rate-check", "--config", CRITICAL_WIDE, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "BANDED within 1.048 over n in [256..16384] (regime=critical, limit=4)\n"
        )
        rows = (tmp_path / "rate_report.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [256 << i for i in range(7)]

    def test_order_cap_outside_q2_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE.replace("method.q = 2.0", "method.q = 3.0").replace(
            "n_grid = 4 8 16 32 64", "n_grid = 128 256 512 1024 2048"
        ))
        assert main(["rate-check", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        assert "within [4, 1024] at q = 3" in capsys.readouterr().err

    def test_band_limit_override_must_exceed_one(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["rate-check", "--config", str(path), "--band-limit", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [["classify"], ["witness", "--n", "8"]])
    def test_band_limit_rejected_where_no_band_is_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", GROWING, "--band-limit", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --band-limit 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rate-check", "table-vnad", "best-approx"])
    def test_band_limit_taken_where_a_band_is_read(self, command):
        args = cli._build_parser().parse_args([command, "--config", GROWING, "--band-limit", "2"])
        assert cli._apply_overrides(parse_config(GROWING), args).band_limit == 2.0

    def test_every_subcommand_has_a_runner_and_every_runner_a_subcommand(self):
        parser = cli._build_parser()
        (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
        runners = [sp.get_default("run") for sp in sub.choices.values()]
        commands = [value for name, value in vars(cli).items() if name.startswith("cmd_")]
        assert len(runners) == len(commands) == len(set(runners))
        assert set(runners) == set(commands)

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["classify", "--config", str(tmp_path / "nope.cfg")]) == 2
