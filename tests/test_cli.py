import math
import os

import pytest

from issgains.cli import ConfigError, RunConfig, dispatch, main, parse_config


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
                                      "mu_e = 0", "mu_p = -1", "h = 0.07"])
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
        path = os.path.join(cfg.output_dir, "sweep.csv")
        first = open(path, "rb").read()
        dispatch("sweep", cfg)
        assert open(path, "rb").read() == first

    def test_gains_outputs(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        assert dispatch("gains", cfg) == 0
        out = capsys.readouterr().out
        assert "gamma_slope" in out
        kv = open(os.path.join(cfg.output_dir, "gains.kv")).read()
        slope = float([ln.split("=")[1] for ln in kv.splitlines() if ln.startswith("gamma_slope")][0])
        # Coarse 32-interval chain already lands close to the reference slope.
        assert slope == pytest.approx(0.90, abs=0.01)

    def test_check_passes_on_heat_family(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        assert dispatch("check", cfg) == 0
        text = open(os.path.join(cfg.output_dir, "check.txt")).read()
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

    def test_plot_requires_sweep(self, tmp_path, capsys):
        assert dispatch("plot", small_cfg(tmp_path)) == 2

    def test_plot_renders_figures(self, tmp_path):
        cfg = small_cfg(tmp_path)
        dispatch("sweep", cfg)
        assert dispatch("plot", cfg) == 0
        for name in ("fig_omegan.svg", "fig_dn.svg", "fig_fracnorm.svg"):
            content = open(os.path.join(cfg.output_dir, name)).read()
            assert content.startswith("<svg")
            assert "polyline" in content


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
