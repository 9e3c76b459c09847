import json
import math
import os
import subprocess
import sys

import pytest

import issgains
import issgains.cli as cli
import issgains.numerics as numerics
from issgains.cli import ConfigError, RunConfig, dispatch, main, parse_config
from issgains.gains import assemble_gains


class TestParseConfig:
    def test_empty_source_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full comment\n\n a = 2.0  # trailing\n")
        assert cfg.a == 2.0

    def test_schedule_and_overrides(self):
        cfg = parse_config("n_schedule = 500,1000\na = 2.0\n")
        assert cfg.n_schedule == (500, 1000)
        assert cfg.a == 2.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1.*unknown key"):
            parse_config("beta = 3\n")

    def test_range_error_names_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("alpha = 1.5\n")

    def test_malformed_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("a = 1.0\nnot a pair\n")

    @pytest.mark.parametrize("line", ["a = -1", "theta = 1.0", "u_norm = taxicab",
                                      "n_schedule = 4,3", "weight_exponent = 3",
                                      "mu_e = 0", "mu_p = -1", "h = 0.07",
                                      "a = inf", "lambda_max = inf", "mu_p = inf",
                                      "mu_e = inf", "mu_e = nan",
                                      # 10^7 + 1 steps of the default h = 0.05
                                      "t_end = 500000.05"])
    def test_validation(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")


SMALL = "n_schedule = 16,32\nlambda_count = 50\nt_end = 1.0\nh = 0.1\n"


def small_cfg(tmp_path, extra=""):
    cfg = parse_config(SMALL + extra)
    return cfg.__class__(**{**cfg.__dict__, "output_dir": str(tmp_path / "out")})


class TestDispatch:
    def test_unknown_command(self, tmp_path, capsys):
        assert dispatch("frobnicate", small_cfg(tmp_path)) == 2

    def test_sweep_writes_csv(self, tmp_path):
        cfg = small_cfg(tmp_path)
        assert dispatch("sweep", cfg) == 0
        path = os.path.join(cfg.output_dir, "sweep.csv")
        with open(path) as fh:
            assert fh.readline().strip() == "n,omegan,Dn,AnalphaBnnorm"

    def test_sweep_idempotent(self, tmp_path):
        cfg = small_cfg(tmp_path)
        dispatch("sweep", cfg)
        path = tmp_path / "out" / "sweep.csv"
        first = path.read_bytes()
        dispatch("sweep", cfg)
        assert path.read_bytes() == first

    def test_gains_outputs(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        assert dispatch("gains", cfg) == 0
        out = capsys.readouterr().out
        assert "gamma_slope" in out
        kv = (tmp_path / "out" / "gains.kv").read_text()
        slope = float([ln.split("=")[1] for ln in kv.splitlines() if ln.startswith("gamma_slope")][0])
        # Coarse 32-interval chain already lands close to the reference slope.
        assert slope == pytest.approx(0.90, abs=0.01)

    def test_check_passes_on_heat_family(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        assert dispatch("check", cfg) == 0
        text = (tmp_path / "out" / "check.txt").read_text()
        assert "FAIL" not in text

    def test_simulate_writes_trajectories(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        assert dispatch("simulate", cfg) == 0
        for label in ("onesided", "twosided", "bangbang"):
            path = os.path.join(cfg.output_dir, f"traj_{label}.csv")
            with open(path) as fh:
                assert fh.readline().strip() == "t,norm"
        out = capsys.readouterr().out
        assert "diagnostic only" in out

    def test_simulate_fails_on_negative_margin(self, tmp_path, capsys):
        # Halving mu_e halves the gain slope, so the one-sided and the
        # bang-bang trajectories leave the certified bound.
        code = main(["simulate", "--mu_e", "0.5", "--n_schedule", "64,128",
                     "--output_dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "onesided: min margin -" in out
        assert "bangbang: min margin -" in out

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    def test_diverging_frac_norm_fails(self, tmp_path, capsys, command):
        # At alpha = 3/4 the fractional norm grows like n^(1/4): no limit.
        code = main([command, "--alpha", "0.75", "--n_schedule", "64,128,256",
                     "--output_dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "frac_norm_limit" in err and "last_delta" in err
        assert not os.path.exists(tmp_path / "gains.kv")
        assert not os.path.exists(tmp_path / "traj_onesided.csv")

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    def test_quadrature_failure_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # One step halving cannot reach the 1e-13 agreement of the rule.
        monkeypatch.setattr(numerics, "QUAD_MAX_LEVEL", 1)
        code = main([command, "--n_schedule", "16,32", "--lambda_count", "50",
                     "--output_dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quad_exp_tail(alpha=0.5, omega=")
        assert "best estimate" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    def test_single_resolution_is_config_error(self, tmp_path, capsys, command):
        code = main([command, "--n_schedule", "64", "--output_dir", str(tmp_path)])
        assert code == 2
        assert "n_schedule" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_single_resolution_sweep_and_plot(self, tmp_path, capsys):
        args = ["--n_schedule", "16", "--lambda_count", "50", "--output_dir", str(tmp_path)]
        assert main(["sweep"] + args) == 0
        assert main(["plot"] + args) == 0

    def test_plot_requires_sweep(self, tmp_path, capsys):
        assert dispatch("plot", small_cfg(tmp_path)) == 2

    def test_plot_renders_figures(self, tmp_path):
        cfg = small_cfg(tmp_path)
        dispatch("sweep", cfg)
        assert dispatch("plot", cfg) == 0
        for name in ("fig_omegan.svg", "fig_dn.svg", "fig_fracnorm.svg"):
            content = (tmp_path / "out" / name).read_text()
            assert content.startswith("<svg")
            assert "polyline" in content


class TestExtremeOmega:
    """K1 and K2 far from omega = 1, where QUADPACK returned wrong K1 values
    (9.7e-46 at a = 1e7, -5.8e-19 at a = 1e-8) without an error."""

    @pytest.mark.parametrize("a", ["1e7", "1e-8"])
    def test_k_constants_match_closed_forms(self, tmp_path, capsys, monkeypatch, a):
        calls = []

        def spy(*args, **kwargs):
            bundle = assemble_gains(*args, **kwargs)
            calls.append((args, bundle))
            return bundle

        monkeypatch.setattr(cli, "assemble_gains", spy)
        code = main(["gains", "--a", a, "--n_schedule", "250,500,1000",
                     "--output_dir", str(tmp_path)])
        assert code == 0
        [((alpha, theta, gb, sb, _), bundle)] = calls
        # K1 = omega^alpha for m = 1, and K2 = D pi/sin(pi alpha) / (Gamma(1-alpha) pi |cos theta|).
        assert bundle.k1 == pytest.approx(bundle.beta_omega**alpha, rel=1e-10)
        k2 = sb.d / (math.gamma(1.0 - alpha) * abs(math.cos(theta)) * math.sin(math.pi * alpha))
        assert bundle.k2 == pytest.approx(k2, rel=1e-10)
        assert f"K1 = {bundle.k1:.10g}\n" in (tmp_path / "gains.kv").read_text()


class TestMain:
    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(SMALL + "a = 2.0\n")
        out_dir = tmp_path / "o"
        code = main(["sweep", "--config", str(cfg_file), "--a", "1.0",
                     "--output_dir", str(out_dir)])
        assert code == 0
        data = (out_dir / "sweep.csv").read_text().splitlines()[1]
        omega = float(data.split(",")[1])
        # a = 1 from the flag must win over a = 2 in the file.
        assert omega < 10.0

    def test_bad_flag_value(self, capsys):
        assert main(["sweep", "--alpha", "2.0"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/x.cfg"]) == 2

    def test_unknown_command_via_main(self, tmp_path, capsys):
        assert main(["nope", "--output_dir", str(tmp_path)]) == 2


# Prints the scipy modules loaded after importing the CLI and after each command.
_FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
from issgains.cli import main

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {"import": loaded()}
small = ["--n_schedule", "8,16", "--lambda_count", "20", "--output_dir", sys.argv[1]]
for command in ("sweep", "plot", "gains", "simulate", "check"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command] + small)
    stages[command] = [code, loaded()]
print(json.dumps(stages))
"""


class TestImportFootprint:
    def test_scipy_loaded_only_where_called(self, tmp_path):
        # A fresh interpreter, since this test process has imported scipy already.
        src = os.path.dirname(os.path.dirname(issgains.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        stages = json.loads(proc.stdout)
        assert stages["import"] == []
        assert stages["sweep"] == [0, []]
        assert stages["plot"] == [0, []]
        assert stages["gains"] == [0, []]
        assert stages["simulate"] == [0, []]
        code, modules = stages["check"]
        assert code == 0
        assert "scipy.linalg" in modules
        assert not any(m.startswith(("scipy.integrate", "scipy.optimize")) for m in modules)
