import ast
import builtins
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import issgains
import issgains.cli as cli
import issgains.config as config
import issgains.gains as gains
import issgains.numerics as numerics
import issgains.sweep as sweep
from issgains.cli import ConfigError, RunConfig, dispatch, main
from issgains.config import MAX_LAMBDA_COUNT, MAX_N, file_overrides, validated
from issgains.gains import assemble_gains


# n_schedule values with an empty entry, or none, and the error that names it.
EMPTY_SCHEDULES = [
    ("250,,500", "entry 2 of 3 in '250,,500' is empty"),
    ("250,500,", "entry 3 of 3 in '250,500,' is empty"),
    (",", "entry 1 of 2 in ',' is empty"),
    ("250, ,500", "entry 2 of 3 in '250, ,500' is empty"),
    ("", "the schedule is empty"),
]

# n_schedule values with an entry that is not plain decimal digits, and the
# error that names it.  int() alone would take the first four.
NON_DIGIT_SCHEDULES = [
    ("1_6,3_2", "entry 1 of 2 in '1_6,3_2' is '1_6', not plain decimal digits"),
    ("+250,500", "entry 1 of 2 in '+250,500' is '+250', not plain decimal digits"),
    ("8, -16", "entry 2 of 2 in '8, -16' is '-16', not plain decimal digits"),
    ("8,\u0661\u0666", "entry 2 of 2 in '8,\u0661\u0666' is '\u0661\u0666', "
     "not plain decimal digits"),
    ("8,16.0", "entry 2 of 2 in '8,16.0' is '16.0', not plain decimal digits"),
    ("8,1e3", "entry 2 of 2 in '8,1e3' is '1e3', not plain decimal digits"),
    ("8 16,32", "entry 1 of 2 in '8 16,32' is '8 16', not plain decimal digits"),
]


class TestParseConfig:
    def test_empty_source_gives_defaults(self):
        assert validated(file_overrides("")) == RunConfig()

    def test_comments_and_blank_lines(self):
        cfg = validated(file_overrides("# full comment\n\n a = 2.0  # trailing\n"))
        assert cfg.a == 2.0

    def test_hash_inside_a_value_is_kept(self, tmp_path, capsys):
        # A # starts a comment only at the start of a line or after
        # whitespace, so a path keeps its #, as it does from a flag.
        out_dir = tmp_path / "hash#dir"
        cfg_file = tmp_path / "hash.cfg"
        cfg_file.write_text(f"n_schedule = 16,32\noutput_dir = {out_dir}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        assert (out_dir / "sweep.csv").is_file()
        assert capsys.readouterr().out.startswith(f"wrote {out_dir / 'sweep.csv'} ")

    def test_hash_after_a_value_is_a_parse_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "hash.cfg"
        cfg_file.write_text("n_schedule = 16,32#x\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--output_dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: line 1: bad value for n_schedule: entry 2 of 2 in "
            "'16,32#x' is '32#x', not plain decimal digits\n")
        assert not out_dir.exists()

    def test_schedule_and_overrides(self):
        cfg = validated(file_overrides("n_schedule = 500,1000\na = 2.0\n"))
        assert cfg.n_schedule == (500, 1000)
        assert cfg.a == 2.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1.*unknown key"):
            validated(file_overrides("beta = 3\n"))

    def test_duplicate_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "dup.cfg"
        cfg_file.write_text("alpha = 0.3\n# later\nalpha = 0.6\n")
        assert main(["gains", "--config", str(cfg_file), "--output_dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg_file}: line 3: duplicate key 'alpha' (first set on line 1)\n"

    def test_theta_is_not_a_setting(self, tmp_path, capsys):
        # The sector angle is the constant gains.THETA: as a key or a flag it
        # is unknown, and refused before output_dir is made.
        cfg_file = tmp_path / "theta.cfg"
        cfg_file.write_text("theta = 3.0\n")
        out_dir = tmp_path / "new"
        assert main(["gains", "--config", str(cfg_file), "--output_dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_file}: line 1: unknown key 'theta'\n"
        assert main(["gains", "--theta", "3", "--output_dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: unknown option --theta\n"
        assert not out_dir.exists()

    def test_unknown_key_names_the_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "bogus.cfg"
        cfg_file.write_text("a = 1.0\nbogus = 2\n")
        assert main(["gains", "--config", str(cfg_file), "--output_dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg_file}: line 2: unknown key 'bogus'\n"
        assert os.listdir(tmp_path) == ["bogus.cfg"]

    def test_range_error_names_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            validated(file_overrides("alpha = 1.5\n"))

    def test_malformed_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            validated(file_overrides("a = 1.0\nnot a pair\n"))

    def test_schedule_whitespace(self):
        assert validated(file_overrides("n_schedule =  250 , 500 \n")).n_schedule == (250, 500)

    @pytest.mark.parametrize("value, message", EMPTY_SCHEDULES)
    def test_empty_schedule_entry(self, value, message):
        with pytest.raises(ConfigError) as info:
            validated(file_overrides(f"n_schedule = {value}\n"))
        assert str(info.value) == f"line 1: bad value for n_schedule: {message}"

    @pytest.mark.parametrize("value, message", NON_DIGIT_SCHEDULES)
    def test_non_digit_schedule_entry(self, value, message):
        with pytest.raises(ConfigError) as info:
            validated(file_overrides(f"n_schedule = {value}\n"))
        assert str(info.value) == f"line 1: bad value for n_schedule: {message}"

    def test_schedule_leading_zeros(self):
        assert validated(file_overrides("n_schedule = 08,016\n")).n_schedule == (8, 16)

    @pytest.mark.parametrize("line", ["a = -1", "theta = 1.0", "u_norm = taxicab",
                                      "n_schedule = 4,3", "weight_exponent = 3",
                                      "mu_e = 0", "mu_p = -1", "h = 0.07",
                                      "a = inf", "lambda_max = inf", "mu_p = inf",
                                      "mu_e = inf", "mu_e = nan",
                                      # below the norms the scheme attains
                                      "mu_e = 0.5", "mu_p = 0.999",
                                      # the fractional norm overflows, and underflows
                                      "a = 1e-320", "a = 2.3e-308",
                                      # 10^7 + 1 steps of the default h = 0.05
                                      "t_end = 500000.05",
                                      "n_schedule = 4,10000001",
                                      "lambda_count = 1", "lambda_count = 1000001"])
    def test_validation(self, line):
        with pytest.raises(ConfigError):
            validated(file_overrides(line + "\n"))

    def test_largest_resolution(self):
        assert validated(file_overrides(f"n_schedule = 4,{MAX_N}\n")).n_schedule == (4, MAX_N)

    @pytest.mark.parametrize("count", [2, MAX_LAMBDA_COUNT])
    def test_lambda_count_bounds(self, count):
        assert validated(file_overrides(f"lambda_count = {count}\n")).lambda_count == count


SMALL = "n_schedule = 16,32\nlambda_count = 50\nt_end = 1.0\nh = 0.1\n"


def small_cfg(tmp_path, extra=""):
    cfg = validated(file_overrides(SMALL + extra))
    return cfg._replace(output_dir=str(tmp_path / "out"))


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

    def test_check_takes_each_probe_norm_once(self, tmp_path, capsys, monkeypatch):
        # At the diagnostics config, 4 resolutions and 2 probes: one lifted
        # image per (probe, n) for the consistency ratios.  The probe norms
        # and mu_p are closed forms.
        import issgains.fattorini as fattorini

        norm = fattorini.function_l2_norm
        calls = []
        monkeypatch.setattr(fattorini, "function_l2_norm",
                            lambda f, **kw: calls.append(f) or norm(f, **kw))
        assert main(["check", "--n_schedule", "32,64,128,256", "--lambda_count", "4000",
                     "--output_dir", str(tmp_path)]) == 0
        assert len(calls) == 2 * 4

    def test_check_samples_each_probe_once_per_resolution(self, tmp_path, capsys, monkeypatch):
        # At the diagnostics config only the consistency ratios sample a
        # probe, once per (probe, n); estimate_mu samples nothing.
        import issgains.fattorini as fattorini

        restrict = fattorini.restrict
        calls = []
        monkeypatch.setattr(fattorini, "restrict",
                            lambda f, space: calls.append(space.n) or restrict(f, space))
        assert main(["check", "--n_schedule", "32,64,128,256", "--lambda_count", "4000",
                     "--output_dir", str(tmp_path)]) == 0
        assert sorted(calls) == [n for n in (32, 64, 128, 256) for _ in range(2)]

    def test_simulate_writes_trajectories(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        assert dispatch("simulate", cfg) == 0
        for label in ("onesided", "twosided", "bangbang"):
            path = os.path.join(cfg.output_dir, f"traj_{label}.csv")
            with open(path) as fh:
                assert fh.readline().strip() == "t,norm"
        out = capsys.readouterr().out
        assert "diagnostic only" in out

    def test_trajectory_csv_blocks_join_seamlessly(self, monkeypatch):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
        times = [0.1 * i for i in range(10)]
        norms = [math.exp(-t) / 3.0 for t in times]
        traj = SimpleNamespace(times=np.array(times), norms=np.array(norms))
        expected = "t,norm\n" + "".join(f"{t:.10g},{r:.10g}\n" for t, r in zip(times, norms))
        assert "".join(cli._traj_csv(traj)) == expected

    def test_trajectory_csv_matches_row_formatting(self, monkeypatch):
        """One % per block writes the bytes of one "%.10g,%.10g" per row:
        random doubles of every magnitude, signed zeros, subnormals and
        1e300, over blocks of 4 with a ragged last block of 3."""
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        rng = np.random.default_rng(17)
        special = [0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1e300, 1.0, 0.1]
        times = np.concatenate([special, rng.uniform(-1.0, 1.0, 7)
                                * 10.0 ** rng.integers(-320, 300, 7)])
        norms = np.concatenate([special[::-1], np.abs(rng.standard_normal(7))
                                * 10.0 ** rng.integers(-320, 300, 7)])
        assert times.size % 4 == 3
        traj = SimpleNamespace(times=times, norms=norms)
        expected = "t,norm\n" + "".join("%.10g,%.10g\n" % (t, r)
                                        for t, r in zip(times.tolist(), norms.tolist()))
        assert "".join(cli._traj_csv(traj)) == expected

    def test_simulate_fails_on_negative_margin(self, tmp_path, capsys, monkeypatch):
        # Halving the gain slope, the one-sided and the bang-bang
        # trajectories leave the certified bound.
        run_chain = cli._run_chain

        def halved(cfg):
            bundle = run_chain(cfg)
            return bundle._replace(gamma_slope=0.5 * bundle.gamma_slope)

        monkeypatch.setattr(cli, "_run_chain", halved)
        code = main(["simulate", "--n_schedule", "64,128", "--output_dir", str(tmp_path)])
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

    def test_small_diverging_frac_norm_fails(self, tmp_path, capsys):
        # At a = 1e-8 the alpha = 3/4 norms are a^(3/4) times those at a = 1:
        # all below 1e-3, and still doubling with every fourfold refinement.
        code = main(["gains", "--alpha", "0.75", "--a", "1e-8", "--output_dir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: frac_norm_limit did not converge: last_delta = ")
        assert not os.path.exists(tmp_path / "gains.kv")

    def test_large_converged_frac_norm_passes(self, tmp_path, capsys):
        # At a = 1e100 the norm is sqrt(2a) = 1.4e50, and its last change
        # (about 2e34) is a relative change of about 1.5e-16.
        code = main(["gains", "--a", "1e100", "--n_schedule", "250,500,1000",
                     "--output_dir", str(tmp_path)])
        assert code == 0
        assert "frac_norm_limit  1.414213562e+50\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    @pytest.mark.parametrize("mu, value", [("1e200", "inf"), ("1e-200", "0")])
    def test_no_certified_gain_from_extreme_mu(self, tmp_path, capsys, command, mu, value):
        # mu_p mu_e overflows to inf, and D, K2 and beta_M with it, so no
        # bound certifies anything.  A mu below 1, where the product would
        # underflow to 0, is refused as a config error before any work.
        code = main([command, "--n_schedule", "16,32,64", "--mu_p", mu, "--mu_e", mu,
                     "--output_dir", str(tmp_path)])
        captured = capsys.readouterr()
        if value == "inf":
            assert code == 1
            assert captured.err == ("error: K2 = inf is not finite and positive, "
                                    "so no certified gain exists\n")
        else:
            assert code == 2
            assert captured.err == ("error: mu_p and mu_e must be at least 1 and finite, "
                                    f"got {mu} and {mu}\n")
        assert captured.out == ""
        assert not [name for name in os.listdir(tmp_path)
                    if name == "gains.kv" or name.startswith("traj_")]

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    def test_gain_below_the_exact_gain_exits_1(self, tmp_path, capsys, command):
        # At p = 1 the state (1, ..., 1) of u = (1, 1) has norm sqrt((n-1)/n),
        # which rises to 1, but the K route gives gamma_slope 0.0324547189.
        code = main([command, "--weight_exponent", "1", "--alpha", "0.1", "--a", "1e6",
                     "--n_schedule", "4000,8000,16000", "--output_dir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: gamma_slope = 0.0324547 is below 1, the exact gain of "
                                "the heat pair at n >= 16000 from x0 = 0, so no certified "
                                "gain exists\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    def test_quadrature_failure_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # One step halving cannot reach the 1e-13 agreement of the rule.
        monkeypatch.setattr(numerics, "QUAD_MAX_LEVEL", 1)
        code = main([command, "--n_schedule", "16,32", "--lambda_count", "50",
                     "--output_dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quad_exp_tail(alpha=0.5) did not converge within 1 "
                              "step halvings (last change ")
        assert "best estimate" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    def test_non_finite_quadrature_sum_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # Infinite node weights: 0 * inf at the nodes where an integrand
        # underflows makes the first K integral's sum NaN.
        tanh_sinh = numerics._tanh_sinh
        monkeypatch.setattr(numerics, "_tanh_sinh", lambda t: (tanh_sinh(t)[0], math.inf))
        code = main([command, "--n_schedule", "16,32", "--lambda_count", "50",
                     "--output_dir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: quad_exp_tail(alpha=0.5) has a non-finite sum nan\n"
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    def test_single_resolution_is_config_error(self, tmp_path, capsys, command):
        # Refused before dispatch makes output_dir.
        out_dir = tmp_path / "new"
        code = main([command, "--n_schedule", "64", "--output_dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == ("error: the gains are limits over n_schedule, "
                                           "which needs at least 2 resolutions, got 1\n")
        assert not out_dir.exists()

    @settings(max_examples=30, deadline=None, database=None)
    @given(schedule=st.lists(st.integers(2, 300), min_size=1, max_size=4, unique=True)
           .map(sorted))
    def test_check_runs_on_the_schedule_as_given(self, schedule):
        # One system per configured n, a lone n included: each n has its
        # sector line and its two consistency lines, and no other n has one.
        # mu_e is the closed form at the largest n.
        flag = ",".join(map(str, schedule))
        with tempfile.TemporaryDirectory() as out_dir, \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", "--n_schedule", flag, "--lambda_count", "50",
                         "--output_dir", out_dir]) == 0
            text = Path(out_dir, "check.txt").read_text()
        sector = re.findall(r"^  sector\.D_(\d+) = ", text, re.M)
        strong = re.findall(r"^  consistency\.strong\.\w+_(\d+) = ", text, re.M)
        assert [int(n) for n in sector] == schedule
        assert sorted(int(n) for n in strong) == sorted(schedule * 2)
        mu_e = float(re.search(r"^  mu_e = (\S+)$", text, re.M).group(1))
        assert mu_e == float(f"{math.sqrt((2 + math.cos(math.pi / schedule[-1])) / 3):.10g}")

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


SWEEP_CSV = "n,omegan,Dn,AnalphaBnnorm\n16,9.83,0.99,1.41\n32,9.86,0.99,1.41\n"


class TestPlotInput:
    """Every malformed CSV given to plot exits 2 with one error line naming
    the file, and no figure of it is written."""

    @staticmethod
    def plot_error(tmp_path, capsys, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(["plot", "--output_dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_missing_sweep(self, tmp_path, capsys):
        err = self.plot_error(tmp_path, capsys, {})
        assert err == f"error: {tmp_path / 'sweep.csv'} not found; run the sweep command first\n"

    def test_header_only_sweep(self, tmp_path, capsys):
        err = self.plot_error(tmp_path, capsys, {"sweep.csv": "n,omegan,Dn,AnalphaBnnorm\n"})
        assert err == f"error: {tmp_path / 'sweep.csv'}: no data rows\n"

    def test_non_numeric_token(self, tmp_path, capsys):
        err = self.plot_error(tmp_path, capsys,
                              {"sweep.csv": SWEEP_CSV.replace("0.99,1.41\n32", "0.99,abc\n32")})
        assert err == (f"error: {tmp_path / 'sweep.csv'}: line 2: "
                       "could not convert string to float: 'abc'\n")

    def test_trajectory_without_norm_column(self, tmp_path, capsys):
        err = self.plot_error(tmp_path, capsys, {"sweep.csv": SWEEP_CSV,
                                                 "traj_x.csv": "t,state\n0,0\n0.1,0.5\n"})
        assert err == (f"error: {tmp_path / 'traj_x.csv'}: expected the header 't,norm', "
                       "got 't,state'\n")
        assert not (tmp_path / "fig_traj_x.svg").exists()

    def test_wrong_sweep_columns(self, tmp_path, capsys):
        err = self.plot_error(tmp_path, capsys, {"sweep.csv": "n,omegan\n16,9.83\n"})
        assert err == (f"error: {tmp_path / 'sweep.csv'}: expected the header "
                       "'n,omegan,Dn,AnalphaBnnorm', got 'n,omegan'\n")

    @pytest.mark.parametrize("row", ["0.1", "0.1,0.5,0.7", "0.1,0.5,"])
    def test_field_count(self, tmp_path, capsys, row):
        err = self.plot_error(tmp_path, capsys, {"sweep.csv": SWEEP_CSV,
                                                 "traj_x.csv": f"t,norm\n0,0\n\n{row}\n"})
        fields = row.count(",") + 1
        assert err == f"error: {tmp_path / 'traj_x.csv'}: line 4: expected 2 fields, got {fields}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, capsys, value):
        err = self.plot_error(tmp_path, capsys,
                              {"sweep.csv": SWEEP_CSV, "traj_x.csv": f"t,norm\n0,{value}\n"})
        assert err == f"error: {tmp_path / 'traj_x.csv'}: line 2: a value is not finite\n"

    def test_unreadable_trajectory(self, tmp_path, capsys):
        (tmp_path / "traj_x.csv").mkdir()
        err = self.plot_error(tmp_path, capsys, {"sweep.csv": SWEEP_CSV})
        assert err == f"error: {tmp_path / 'traj_x.csv'}: Is a directory\n"

    def test_undecodable_bytes(self, tmp_path, capsys):
        (tmp_path / "traj_x.csv").write_bytes(b"t,norm\n0,\xff\n")
        err = self.plot_error(tmp_path, capsys, {"sweep.csv": SWEEP_CSV})
        assert err.startswith(f"error: {tmp_path / 'traj_x.csv'}: line 2: could not convert")


class TestUnwritableArtifact:
    """An artifact that cannot be written exits 2 with one error line naming
    it; the artifacts written before it stay on disk."""

    @pytest.mark.parametrize("command, name", [
        ("sweep", "sweep.csv"), ("gains", "gains.txt"), ("simulate", "traj_onesided.csv"),
        ("check", "check.txt"), ("plot", "fig_omegan.svg")])
    def test_artifact_is_a_directory(self, tmp_path, capsys, command, name):
        cfg = small_cfg(tmp_path)
        if command == "plot":
            assert dispatch("sweep", cfg) == 0
        (tmp_path / "out" / name).mkdir(parents=True)
        capsys.readouterr()
        assert dispatch(command, cfg) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'out' / name}: Is a directory\n"

    def test_earlier_artifacts_stay(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        (tmp_path / "out" / "gains.kv").mkdir(parents=True)
        assert dispatch("gains", cfg) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path / 'out' / 'gains.kv'}: Is a directory\n"
        assert captured.out == ""
        assert (tmp_path / "out" / "gains.txt").read_text().startswith("alpha")


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

        # _run_chain imports assemble_gains from gains at call time.
        monkeypatch.setattr(gains, "assemble_gains", spy)
        code = main(["gains", "--a", a, "--n_schedule", "250,500,1000",
                     "--output_dir", str(tmp_path)])
        assert code == 0
        [((records, alpha), bundle)] = calls
        # K1 = omega^alpha for M = 1, and K2 = D pi/sin(pi alpha) / (Gamma(1-alpha) pi |cos theta|)
        # with |cos theta| = 1.
        assert bundle.k1 == pytest.approx(bundle.beta_omega**alpha, rel=1e-10)
        d = max(r.d_n for r in records)
        k2 = d / (math.gamma(1.0 - alpha) * math.sin(math.pi * alpha))
        assert bundle.k2 == pytest.approx(k2, rel=1e-10)
        assert f"K1 = {bundle.k1:.10g}\n" in (tmp_path / "gains.kv").read_text()


class TestOnlyFrontEndTouchesFiles:
    """The layers under the front end return text; only cli.py opens a file
    or imports a module that reaches the file system."""

    FILE_MODULES = {"os", "io", "pathlib", "shutil", "tempfile"}
    PACKAGE = Path(issgains.__file__).parent
    LAYERS = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "cli.py")

    @pytest.mark.parametrize("name", LAYERS)
    def test_no_file_access(self, name):
        tree = ast.parse((self.PACKAGE / name).read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "open":
                found.append(f"line {node.lineno}: open()")
            elif isinstance(node, ast.Import):
                found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] in self.FILE_MODULES]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] in self.FILE_MODULES:
                found.append(f"line {node.lineno}: from {node.module} import")
        assert found == []

    def test_layers_found(self):
        assert {"sweep.py", "svgplot.py", "simulate.py"} <= set(self.LAYERS)


class TestTwoErrors:
    """The package defines two exception classes, both in config.py:
    ConfigError (exit 2) and LimitError (exit 1)."""

    PACKAGE = Path(issgains.__file__).parent

    def test_exception_classes(self):
        # A class is an exception if one of its bases is a builtin exception
        # or an exception class of the package, by name, in any module.
        classes = [(path.name, node) for path in sorted(self.PACKAGE.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ClassDef)]
        exceptions = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}
        found = set()
        while True:
            more = {(module, node.name) for module, node in classes
                    if any(getattr(base, "id", getattr(base, "attr", None)) in exceptions
                           for base in node.bases)}
            if more == found:
                break
            found = more
            exceptions |= {name for _, name in more}
        assert sorted(found) == [("config.py", "ConfigError"), ("config.py", "LimitError")]


class TestOnlySpaceNamesInputNorms:
    """The choice of input norm is read in one place: systems.WeightedSpace
    measures inputs, and config.py validates the option.  No other module
    holds the name of an input norm."""

    NAMES = {"max", "euclidean"}
    PACKAGE = Path(issgains.__file__).parent
    MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                     if path.name not in ("config.py", "systems.py"))

    @pytest.mark.parametrize("name", MODULES)
    def test_no_input_norm_name(self, name):
        tree = ast.parse((self.PACKAGE / name).read_text())
        found = [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and node.value in self.NAMES]
        assert found == []

    def test_modules_found(self):
        assert {"numerics.py", "gains.py", "fattorini.py", "sweep.py", "cli.py"} <= set(self.MODULES)


class TestReferenceGains:
    # The reference gains output of the default config.  Fixing the sector
    # constant D to hold over the whole ray moves K2, kappa and gamma_slope
    # on purpose; the other lines stay.
    REFERENCE_KV = ("alpha = 0.5\n"
                    "theta = 3.14159265\n"
                    "K1 = 3.141592573\n"
                    "K2 = 0.5636896704\n"
                    "kappa = 0.6363377429\n"
                    "frac_norm_limit = 1.414213562\n"
                    "beta_M = 1\n"
                    "beta_omega = 9.869603894\n"
                    "gamma_slope = 0.8999174663\n")

    # The default config's sweep table: the paper's convergence study, whose
    # Dn column is the scan over the path window.
    REFERENCE_SWEEP_CSV = (b"n,omegan,Dn,AnalphaBnnorm\n"
                           b"250,9.869474523,0.9991139271,1.414213562\n"
                           b"500,9.869571931,0.9991139173,1.414213562\n"
                           b"1000,9.869596284,0.9991139149,1.414213562\n"
                           b"2000,9.869602372,0.9991139143,1.414213562\n"
                           b"4000,9.869603894,0.9991139141,1.414213562\n")

    def test_default_sweep_csv(self, tmp_path, capsys):
        assert main(["sweep", "--output_dir", str(tmp_path)]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == self.REFERENCE_SWEEP_CSV
        assert capsys.readouterr().out == \
            f"wrote {tmp_path / 'sweep.csv'} (234 bytes, 5 resolutions)\n"

    def test_lambda_count_leaves_sweep_csv(self, tmp_path, capsys):
        # D_n is taken at the ends of the window, which the grid size leaves.
        assert main(["sweep", "--lambda_count", "2", "--output_dir", str(tmp_path)]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == self.REFERENCE_SWEEP_CSV

    # The sweep tables of the euclidean input norm, whose AnalphaBnnorm is 1
    # at every n, and of the Riemann weight p = 1 at alpha = 0.05: the two
    # branches of the operator norm and the state scale at p = 1.
    @pytest.mark.parametrize("config", ["euclidean", "riemann"])
    def test_sweep_csv_digest(self, tmp_path, capsys, config):
        assert run_reference(config, tmp_path) == reference(config).digests

    def test_default_config(self, tmp_path, capsys):
        assert main(["gains", "--output_dir", str(tmp_path)]) == 0
        assert (tmp_path / "gains.kv").read_text() == self.REFERENCE_KV
        text = (tmp_path / "gains.txt").read_text()
        assert [line.split() for line in text.splitlines()] == \
            [line.split(" = ") for line in self.REFERENCE_KV.splitlines()]
        assert capsys.readouterr().out == text


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Reference(NamedTuple):
    commands: list
    flags: list
    digests: dict


REFERENCE = Path(__file__).parent / "reference"


def reference(config) -> Reference:
    """The pinned config ``tests/reference/<config>.sha256``: a sha256sum -c
    manifest of the artifacts, which CI checks too, whose comment lines name
    the commands that write them and the flags they run with."""
    commands, flags, digests = [], [], {}
    for line in (REFERENCE / f"{config}.sha256").read_text().splitlines():
        if line.startswith("# commands:"):
            commands = line.split()[2:]
        elif line.startswith("# flags:"):
            flags = line.split()[2:]
        elif not line.startswith("#"):
            digest, name = line.split("  ")
            digests[name] = digest
    return Reference(commands, flags, digests)


def run_reference(config, out_dir, commands=None) -> dict:
    """Run the pinned config's commands, or ``commands`` of them, into
    out_dir; the SHA-256 of every file written there."""
    pinned = reference(config)
    for command in commands or pinned.commands:
        assert main([command, *pinned.flags, "--output_dir", str(out_dir)]) == 0
    return {path.name: sha256(path) for path in sorted(out_dir.iterdir())}


class TestReferenceArtifacts:
    """Every file the pinned configs of tests/reference write, by SHA-256,
    and the stdout of simulate and plot at the default and the long-horizon
    config."""

    SIMULATE_OUT = ("onesided: min margin +0.322675 at t = 3\n"
                    "twosided: min margin -0.099958 at t = 3 (diagnostic only)\n"
                    "bangbang: min margin +0.374081 at t = 2.4\n")
    HORIZON_OUT = ("onesided: min margin +0.323001 at t = 3\n"
                   "twosided: min margin -0.099582 at t = 3 (diagnostic only)\n"
                   "bangbang: min margin +0.674438 at t = 1.125\n")
    PLOT_OUT = ("wrote fig_omegan.svg, fig_dn.svg, fig_fracnorm.svg, fig_traj_bangbang.svg, "
                "fig_traj_onesided.svg, fig_traj_twosided.svg")
    DEFAULT = reference("default").digests

    def pinned(self, written):
        return {name: self.DEFAULT[name] for name in written}

    def test_every_manifest_is_run(self):
        # The configs the tests here and TestReferenceGains run.
        assert sorted(path.name for path in REFERENCE.iterdir()) == [
            f"{config}.sha256" for config in ("default", "diagnostics", "euclidean",
                                              "long-horizon", "riemann", "scaled", "smallest")]

    def test_long_horizon_simulate(self, tmp_path, capsys):
        assert run_reference("long-horizon", tmp_path) == reference("long-horizon").digests
        assert capsys.readouterr().out == self.HORIZON_OUT

    def test_default_sweep_and_gains(self, tmp_path, capsys):
        written = run_reference("default", tmp_path, ["sweep", "gains"])
        assert written == self.pinned(["gains.kv", "gains.txt", "sweep.csv"])

    def test_default_simulate(self, tmp_path, capsys):
        written = run_reference("default", tmp_path, ["simulate"])
        assert capsys.readouterr().out == self.SIMULATE_OUT
        assert written == self.pinned(f"traj_{label}.csv"
                                      for label in ("bangbang", "onesided", "twosided"))

    def test_default_check(self, tmp_path, capsys):
        assert run_reference("default", tmp_path, ["check"]) == self.pinned(["check.txt"])

    def test_default_plot(self, tmp_path, capsys):
        written = run_reference("default", tmp_path, ["sweep", "simulate", "plot"])
        assert capsys.readouterr().out.splitlines()[-1] == self.PLOT_OUT
        assert written == self.pinned(written)
        assert len(written) == 10

    @pytest.mark.parametrize("config", ["diagnostics", "scaled", "smallest"])
    def test_check_digest(self, tmp_path, capsys, config):
        assert run_reference(config, tmp_path) == reference(config).digests


class TestCheckRendering:
    """check.txt is the report that check prints, byte for byte, and lists no
    right-inverse diagnostic and no sector supremum."""

    CONFIGS = {
        "default": [],
        "diagnostics": ["--n_schedule", "32,64,128,256", "--lambda_count", "4000"],
        "2,3": ["--n_schedule", "2,3"],
    }

    @pytest.mark.parametrize("label", list(CONFIGS))
    def test_check_txt_is_stdout(self, tmp_path, capsys, label):
        assert main(["check", *self.CONFIGS[label], "--output_dir", str(tmp_path)]) == 0
        text = (tmp_path / "check.txt").read_bytes()
        assert text == capsys.readouterr().out.encode("ascii")
        assert b"right_inverse" not in text
        assert b"sector.sup" not in text


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

    def test_flag_overrides_invalid_file_value(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(SMALL + "alpha = 1.5\n")
        args = ["gains", "--config", str(cfg_file), "--output_dir", str(tmp_path / "o")]
        # The file is validated only after the flags are merged over it.
        assert main(args + ["--alpha", "0.5"]) == 0
        assert "alpha            0.5\n" in capsys.readouterr().out
        assert main(args) == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err

    def test_bad_flag_value(self, capsys):
        assert main(["sweep", "--alpha", "2.0"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("a, alpha", [("1e-320", "0.03"), ("2.3e-308", "0.97")])
    def test_extreme_a_names_a(self, tmp_path, capsys, a, alpha):
        code = main(["gains", "--a", a, "--alpha", alpha, "--n_schedule", "250,500,1000",
                     "--output_dir", str(tmp_path)])
        assert code == 2
        assert "a must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "gains", "simulate"])
    @pytest.mark.parametrize("flags, ratio", [(["--h", "inf"], "3.0 / inf"),
                                              (["--t_end", "5e-324", "--h", "10"], "5e-324 / 10.0")])
    def test_zero_steps_is_config_error(self, tmp_path, capsys, command, flags, ratio):
        # t_end / h underflows to 0, which leaves bang_bang no step to draw.
        code = main([command, "--n_schedule", "8,16", "--output_dir", str(tmp_path)] + flags)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: t_end / h = {ratio} underflows to 0 steps; need at least 1\n"
        assert captured.out == ""
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["sweep", "gains", "simulate"])
    def test_lambda_count_unread_outside_check(self, tmp_path, capsys, command):
        # Only check builds the lambda_count grid, but every command refuses
        # a bad one with the rest of the config.
        assert main([command, "--lambda_count", "1", "--n_schedule", "16,32",
                     "--t_end", "1.0", "--h", "0.1", "--output_dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: lambda_count must be >= 2\n"
        assert captured.out == ""
        assert not os.listdir(tmp_path)

    def test_lambda_count_checked_by_check(self, tmp_path, capsys):
        code = main(["check", "--lambda_count", "1", "--n_schedule", "16,32",
                     "--output_dir", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: lambda_count must be >= 2\n"
        assert captured.out == ""
        assert not (tmp_path / "check.txt").exists()

    @pytest.mark.parametrize("count", ["1099511627776", "99999999999999999999"])
    def test_oversized_lambda_count_is_config_error(self, tmp_path, capsys, count):
        # 2^40 points would allocate 8 TiB, and 10^20 exceeds numpy's
        # largest dimension.
        code = main(["check", "--n_schedule", "8,16", "--lambda_count", count,
                     "--output_dir", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: lambda_count is {count}, "
                                f"above MAX_LAMBDA_COUNT = {MAX_LAMBDA_COUNT}\n")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["sweep", "gains", "simulate", "check", "plot"])
    def test_bad_lambda_count_makes_no_output_dir(self, tmp_path, capsys, command):
        # Refused with the config, before dispatch creates the directory.
        out_dir = tmp_path / "new"
        assert main([command, "--lambda_count", "1", "--output_dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: lambda_count must be >= 2\n"
        assert not out_dir.exists()

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/x.cfg"]) == 2

    def test_config_file_not_utf8(self, tmp_path, monkeypatch, capsys):
        # A Latin-1 byte in a comment; never decoded as U+FFFD, which could
        # pass into a value such as output_dir.
        (tmp_path / "bad.cfg").write_bytes(b"a = 1.0\nalpha = 0.5 # caf\xe9\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "dispatch", None)
        assert main(["gains", "--config", "bad.cfg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad.cfg: not UTF-8 at byte 25: invalid continuation byte\n"

    def test_config_file_byte_order_mark(self, tmp_path, monkeypatch):
        # A UTF-8 byte-order mark is dropped: the file gives the RunConfig
        # of the same file without it.
        body = b"a = 2.0\nn_schedule = 16,32\n"
        (tmp_path / "plain.cfg").write_bytes(body)
        (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + body)
        seen = []
        monkeypatch.setattr(cli, "dispatch", lambda command, cfg: seen.append(cfg) or 0)
        for name in ("plain.cfg", "bom.cfg"):
            assert main(["gains", "--config", str(tmp_path / name)]) == 0
        assert seen[0] == seen[1] == RunConfig(a=2.0, n_schedule=(16, 32))

    def test_bad_byte_after_byte_order_mark(self, tmp_path, monkeypatch, capsys):
        # The offset counts the mark's three bytes: it is the file's own.
        (tmp_path / "bad.cfg").write_bytes(b"\xef\xbb\xbfa = 1.0\n\xff\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "dispatch", None)
        assert main(["gains", "--config", "bad.cfg"]) == 2
        assert capsys.readouterr().err == "error: bad.cfg: not UTF-8 at byte 11: invalid start byte\n"

    @pytest.mark.parametrize("argv", [["--config="], ["--config", ""]])
    def test_empty_config_path_is_opened(self, monkeypatch, capsys, argv):
        # An empty path names no file: it fails like any other, not as no --config.
        monkeypatch.setattr(cli, "dispatch", None)
        assert main(["gains", *argv, "--n_schedule", "16,32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "No such file or directory: ''" in captured.err

    @pytest.mark.parametrize("value, message", EMPTY_SCHEDULES)
    def test_empty_schedule_entry_flag(self, monkeypatch, capsys, value, message):
        monkeypatch.setattr(cli, "dispatch", None)
        assert main(["sweep", "--n_schedule", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad value for --n_schedule: {message}\n"

    @pytest.mark.parametrize("entry", ["1099511627776", "99999999999999999999"])
    def test_oversized_resolution_is_config_error(self, tmp_path, monkeypatch, capsys, entry):
        # Refused by the config, before dispatch makes any array: n = 2^40
        # would allocate 8 TiB, and 10^20 exceeds numpy's largest dimension.
        monkeypatch.setattr(cli, "dispatch", None)
        assert main(["sweep", "--n_schedule", f"4,{entry}", "--output_dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n_schedule entry 2 of 2 is {entry}, above MAX_N = {MAX_N}\n"
        assert not os.listdir(tmp_path)

    def test_unknown_command_via_main(self, tmp_path, capsys):
        assert main(["nope", "--output_dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, output_dir", [("sweep", ""), ("gains", "afile")])
    def test_unusable_output_dir_exits_before_work(self, tmp_path, capsys, monkeypatch,
                                                   command, output_dir):
        (tmp_path / "afile").write_text("")
        monkeypatch.chdir(tmp_path)
        entered = []
        # The commands import run_sweep from sweep at call time.
        monkeypatch.setattr(sweep, "run_sweep", lambda *a, **k: entered.append(1))
        assert main([command, "--n_schedule", "8,16", "--output_dir", output_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot use output_dir {output_dir!r}: ")
        assert err.count("\n") == 1
        assert entered == []


class TestArgv:
    """The front end's own argument grammar: issgains <command> [--config
    FILE] [--KEY VALUE | --KEY=VALUE ...]."""

    @staticmethod
    def parsed(monkeypatch, argv):
        """The command and config that main hands to dispatch."""
        calls = []
        monkeypatch.setattr(cli, "dispatch", lambda command, cfg: calls.append((command, cfg)) or 0)
        assert main(argv) == 0
        [call] = calls
        return call

    def test_key_equals_value(self, monkeypatch):
        command, cfg = self.parsed(monkeypatch, ["gains", "--alpha=0.3", "--n_schedule=8,16"])
        assert (command, cfg.alpha, cfg.n_schedule) == ("gains", 0.3, (8, 16))

    def test_unique_prefix(self, monkeypatch):
        _, cfg = self.parsed(monkeypatch, ["gains", "--n_sched", "8,16", "--weight=1"])
        assert (cfg.n_schedule, cfg.weight_exponent) == ((8, 16), 1)

    def test_t_names_t_end(self, monkeypatch):
        # t_end is the only option that starts with t.
        _, cfg = self.parsed(monkeypatch, ["simulate", "--t", "2.0"])
        assert cfg.t_end == 2.0

    def test_exact_key_wins_over_prefix(self, monkeypatch):
        # a is also a prefix of alpha, and h of help.
        _, cfg = self.parsed(monkeypatch, ["gains", "--a", "2.0", "--h", "0.1"])
        assert (cfg.a, cfg.alpha, cfg.h) == (2.0, 0.5, 0.1)

    def test_last_occurrence_wins(self, monkeypatch, tmp_path):
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text("a = 2.0\n")
        second.write_text("a = 3.0\n")
        _, cfg = self.parsed(monkeypatch, ["gains", "--alpha", "0.3", "--config", str(first),
                                           "--alpha=0.4", "--conf", str(second)])
        assert (cfg.alpha, cfg.a) == (0.4, 3.0)

    @pytest.mark.parametrize("argv", [["--alpha", "0.3", "gains"],
                                      ["--alpha", "0.3", "gains", "--a", "2.0"],
                                      ["--alpha", "0.3", "--", "gains"]])
    def test_command_after_options(self, monkeypatch, argv):
        command, cfg = self.parsed(monkeypatch, argv)
        assert (command, cfg.alpha) == ("gains", 0.3)

    def test_schedule_whitespace(self, monkeypatch):
        _, cfg = self.parsed(monkeypatch, ["gains", "--n_schedule", " 8 ,16 "])
        assert cfg.n_schedule == (8, 16)

    @pytest.mark.parametrize("value, message", NON_DIGIT_SCHEDULES)
    def test_non_digit_schedule_entry(self, monkeypatch, capsys, value, message):
        monkeypatch.setattr(cli, "dispatch", None)
        assert main(["gains", f"--n_schedule={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad value for --n_schedule: {message}\n"

    def test_value_starting_with_dash(self, monkeypatch):
        _, cfg = self.parsed(monkeypatch, ["sweep", "--output_dir", "-x"])
        assert cfg.output_dir == "-x"

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--hel"], ["sweep", "--help"],
                                      ["--alpha", "2.0", "-h"]])
    def test_help(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "dispatch", None)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: issgains <command> ")
        assert captured.err == ""
        options = {line.split()[0]: line.split()[1] for line in captured.out.splitlines()
                   if line.startswith("  --") and line.split()[0] != "--config"}
        assert list(options) == [f"--{name}" for name in cli.PARSERS]
        assert options["--n_schedule"] == "(250,500,1000,2000,4000)"
        assert options["--alpha"] == "(0.5)"
        assert options["--output_dir"] == "(out)"

    @pytest.mark.parametrize("argv, message", [
        (["gains", "--mu", "1"], "ambiguous option --mu: could be --mu_p, --mu_e"),
        (["gains", "--alpha"], "--alpha needs a value"),
        (["gains", "--beta", "1"], "unknown option --beta"),
        (["gains", "--beta=1"], "unknown option --beta"),
        (["gains", "-x"], "unknown option -x"),
        (["gains", "--help=1"], "--help takes no value"),
        (["gains", "--alpha", "0.3", "sweep"],
         "unexpected argument 'sweep': the command is already 'gains'"),
        (["--alpha", "0.3"], "no command given; choose from sweep, gains, simulate, check, plot"),
        ([], "no command given; choose from sweep, gains, simulate, check, plot"),
    ])
    def test_parse_error(self, monkeypatch, capsys, argv, message):
        monkeypatch.setattr(cli, "dispatch", None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestMemory:
    """No command holds an n x n matrix (one at n = 4000 is 128 MB), and
    simulate holds no state array with a row per step."""

    @staticmethod
    def traced_peak(argv):
        """Exit code and tracemalloc peak of one in-process CLI run."""
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return code, peak

    @pytest.mark.parametrize("command", ["gains", "simulate"])
    def test_peak_traced_memory(self, tmp_path, capsys, command):
        code, peak = self.traced_peak([command, "--n_schedule", "2000,4000",
                                       "--output_dir", str(tmp_path)])
        assert code == 0
        assert peak < 16 * 2**20

    def test_long_horizon_simulate(self, tmp_path, capsys):
        # 6000 steps at n = 1000: a (steps + 1) x (n - 1) state array alone
        # would be 48 MB.
        code, peak = self.traced_peak(["simulate", "--n_schedule", "250,1000", "--h", "0.0005",
                                       "--output_dir", str(tmp_path)])
        assert code == 0
        assert peak < 8 * 2**20

    def test_long_horizon_simulate_buffers(self, tmp_path, capsys):
        # With the layers loaded beforehand, the peak is the run's own: 0.9 MB
        # with a 256 KiB stepping buffer and 1024-row CSV blocks, 1.9 MB with
        # a 1 MiB buffer and each CSV formatted whole.
        import issgains.simulate  # noqa: F401

        code, peak = self.traced_peak(["simulate", "--n_schedule", "250,1000", "--h", "0.0005",
                                       "--output_dir", str(tmp_path)])
        assert code == 0
        assert peak < 1.25 * 2**20

    def test_long_step_simulate(self, tmp_path, capsys):
        # 5e4 steps at n = 4, where the step-length arrays outweigh the rest:
        # the one-column bang-bang input (8 B a step) with its trajectory's
        # times and norms (16 B), then the times, norms and margins (24 B)
        # once the input is freed, so 24 B a step at the peak: 1.27 MiB.
        # Storing an all-zero second input column would add 8 B a step, and
        # making the times while the stepping buffer is alive would add the
        # buffer; drawing the input before the held scenarios run, or keeping
        # a trajectory alive through the next scenario, would add 8-16 B a
        # step; with a full |u| copy and the temporaries of beta on top as
        # well, the peak would be 3.81 MiB.
        import issgains.simulate  # noqa: F401
        import issgains.sweep  # noqa: F401

        steps = 50_000
        code, peak = self.traced_peak(["simulate", "--n_schedule", "2,4", "--h", "1e-5",
                                       "--t_end", "0.5", "--output_dir", str(tmp_path)])
        assert code == 0
        assert peak < 24 * steps + issgains.simulate.BLOCK_BYTES + 2**18
        assert capsys.readouterr().out.splitlines()[-1].startswith("bangbang: ")

    def test_trajectory_csv_written_in_blocks(self, tmp_path, capsys):
        # 30000 steps at n = 4, where the rows outweigh the state: formatting
        # each whole CSV before one write peaks at 6.0 MB, the default blocks
        # of 1024 rows at 3.8 MB.
        code, peak = self.traced_peak(["simulate", "--n_schedule", "2,4", "--h", "1e-4",
                                       "--output_dir", str(tmp_path)])
        assert code == 0
        assert peak < 5 * 2**20
        assert len((tmp_path / "traj_bangbang.csv").read_text().splitlines()) == 30002


# Runs every command in a fresh interpreter and prints, per command, its exit
# code, the scipy modules loaded so far and the number of np.linalg.eigh calls
# so far, under "issgains" the issgains modules loaded so far, and under
# "check_only" which of CHECK_ONLY are loaded so far, under "never" which of
# NEVER_LOADED, and under "parser" which of argparse and the modules it pulls
# in.  Arguments: output dir, n_schedule, and "refuse" to make every scipy
# import fail.
_FOOTPRINT_SCRIPT = """
import contextlib, importlib.abc, io, json, sys
import numpy as np

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None

# Less any that importing numpy loads by itself, which no command can avoid.
CHECK_ONLY = [m for m in ("issgains.fattorini",) if m not in sys.modules]
NEVER_LOADED = [m for m in ("dataclasses", "numpy.polynomial", "numpy.random", "_hashlib")
                if m not in sys.modules]
PARSER = [m for m in ("argparse", "gettext", "locale") if m not in sys.modules]
out_dir, schedule, mode = sys.argv[1:4]
if mode == "refuse":
    sys.meta_path.insert(0, RefuseScipy())
eigh_calls = []
eigh = np.linalg.eigh

def counting_eigh(*args, **kwargs):
    eigh_calls.append(1)
    return eigh(*args, **kwargs)

np.linalg.eigh = counting_eigh
from issgains.cli import main

def loaded(package="scipy"):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

stages = {"import": loaded(), "issgains": {"import": loaded("issgains")}, "check_only": {},
          "never": {}, "parser": {"import": [m for m in PARSER if m in sys.modules]}}
small = ["--n_schedule", schedule, "--lambda_count", "20", "--output_dir", out_dir]
for command in ("sweep", "gains", "plot", "simulate", "check"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command] + small)
    stages[command] = [code, loaded(), len(eigh_calls)]
    stages["issgains"][command] = loaded("issgains")
    stages["check_only"][command] = [m for m in CHECK_ONLY if m in sys.modules]
    stages["never"][command] = [m for m in NEVER_LOADED if m in sys.modules]
    stages["parser"][command] = [m for m in PARSER if m in sys.modules]
try:
    import scipy
    stages["scipy_importable"] = True
except ImportError:
    stages["scipy_importable"] = False
print(json.dumps(stages))
"""


# Runs check alone in a fresh interpreter and prints its exit code and the
# issgains modules loaded.  Argument: output dir.
_CHECK_SCRIPT = """
import contextlib, io, json, sys
from issgains.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["check", "--n_schedule", "8,16", "--lambda_count", "20",
                 "--output_dir", sys.argv[1]])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("issgains"))]))
"""


# Refuses every numpy import, then imports the CLI and runs --help, a config
# error, check's refusal of its lambda_count and plot over the CSVs in the
# output dir given as its argument;
# prints what each returned and whether numpy was loaded or importable.
_NUMPY_FREE_SCRIPT = """
import contextlib, importlib.abc, io, json, sys

class RefuseNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseNumpy())
out_dir = sys.argv[1]
from issgains.cli import main

result = {"import": sorted(m for m in sys.modules if m.startswith("issgains"))}
with contextlib.redirect_stdout(io.StringIO()) as out:
    result["help"] = [main(["--help"]), out.getvalue().startswith("usage: issgains")]
with contextlib.redirect_stderr(io.StringIO()) as err:
    result["gains_nan"] = [main(["gains", "--a", "nan", "--output_dir", out_dir]),
                           err.getvalue()]
with contextlib.redirect_stderr(io.StringIO()) as err:
    result["check_lambda"] = [main(["check", "--lambda_count", "1099511627776",
                                    "--output_dir", out_dir]), err.getvalue()]
with contextlib.redirect_stdout(io.StringIO()) as out:
    result["plot"] = [main(["plot", "--output_dir", out_dir]), out.getvalue()]
result["numpy_loaded"] = any(m == "numpy" or m.startswith("numpy.") for m in sys.modules)
try:
    import numpy
    result["numpy_importable"] = True
except ImportError:
    result["numpy_importable"] = False
print(json.dumps(result))
"""


# Imports the CLI, then runs --help, a config error and plot over the CSVs
# in the output dir given as its first argument; after each, prints which of
# the modules named by the other arguments have been loaded, less any loaded
# at start-up.  It imports nothing else that loads inspect (importlib.abc
# does on 3.12).
_STDLIB_FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
PROBED = [m for m in sys.argv[2:] if m not in sys.modules]
out_dir = sys.argv[1]

def loaded():
    return [m for m in PROBED if m in sys.modules]

from issgains.cli import main

result = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    result["help"] = [main(["--help"]), loaded()]
with contextlib.redirect_stderr(io.StringIO()):
    result["config_error"] = [main(["gains", "--a", "nan", "--output_dir", out_dir]), loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    result["plot"] = [main(["plot", "--output_dir", out_dir]), loaded()]
print(json.dumps(result))
"""


def _run_fresh(script, *argv):
    # A fresh interpreter, since this test process has imported numpy and
    # scipy already.
    src = os.path.dirname(os.path.dirname(issgains.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def _fresh(script, *argv):
    proc = _run_fresh(script, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportFootprint:
    def test_scipy_loaded_only_where_called(self, tmp_path):
        stages = _fresh(_FOOTPRINT_SCRIPT, tmp_path / "out", "8,16", "allow")
        assert stages["import"] == []
        for command in ("sweep", "plot", "gains", "simulate", "check"):
            assert stages[command][:2] == [0, []], command

    @pytest.mark.parametrize("schedule", ["8,16", "2,4"])
    def test_numpy_is_enough(self, tmp_path, schedule):
        # n = 2 gives a 1 x 1 generator; like every heat size it takes the
        # closed form, so no command calls numpy's dense eigh.
        stages = _fresh(_FOOTPRINT_SCRIPT, tmp_path / "out", schedule, "refuse")
        assert stages["scipy_importable"] is False
        for command in ("sweep", "plot", "gains", "simulate", "check"):
            assert stages[command] == [0, [], 0], command

    def test_layers_loaded_only_where_called(self, tmp_path):
        loaded = _fresh(_FOOTPRINT_SCRIPT, tmp_path / "out", "8,16", "allow")["issgains"]
        assert loaded["import"] == ["issgains", "issgains.cli", "issgains.config"]
        for command in ("sweep", "gains"):
            assert "issgains.simulate" not in loaded[command], command
            assert "issgains.svgplot" not in loaded[command], command
        assert "issgains.svgplot" in loaded["plot"]

    def test_check_only_modules_loaded_only_by_check(self, tmp_path):
        # The diagnostics are loaded by check alone; the commands run in the
        # order sweep, gains, plot, simulate, check in one interpreter.
        loaded = _fresh(_FOOTPRINT_SCRIPT, tmp_path / "out", "8,16", "allow")["check_only"]
        for command in ("sweep", "gains", "plot", "simulate"):
            assert loaded[command] == [], command
        assert "issgains.fattorini" in loaded["check"]

    def test_check_loads_no_simulator(self, tmp_path):
        # check alone in its interpreter; the footprint script runs simulate
        # before check, so it cannot tell.
        code, loaded = _fresh(_CHECK_SCRIPT, tmp_path / "out")
        assert code == 0
        assert "issgains.fattorini" in loaded
        assert "issgains.simulate" not in loaded
        assert "issgains.svgplot" not in loaded

    def test_no_command_loads_dataclasses(self, tmp_path):
        # Nor numpy.polynomial: check's Gauss rule is written out in
        # systems.py.  Nor numpy.random, or the OpenSSL binding that its
        # seeding pulls in: check draws no random vectors.
        loaded = _fresh(_FOOTPRINT_SCRIPT, tmp_path / "out", "8,16", "allow")["never"]
        for command in ("sweep", "gains", "plot", "simulate", "check"):
            assert loaded[command] == [], command

    def test_front_end_and_plot_load_neither_dataclasses_nor_inspect(self, tmp_path):
        for command in ("sweep", "simulate"):
            assert main([command, *TINY, "--output_dir", str(tmp_path)]) == 0
        result = _fresh(_STDLIB_FOOTPRINT_SCRIPT, tmp_path, "dataclasses", "inspect")
        assert result == {"import": [], "help": [0, []], "config_error": [2, []],
                          "plot": [0, []]}

    def test_no_process_loads_argparse(self, tmp_path):
        # The front end parses its arguments itself.  Nor does numpy load
        # these three, so no command needs them.
        parser = ["argparse", "gettext", "locale"]
        loaded = _fresh(_FOOTPRINT_SCRIPT, tmp_path / "out", "8,16", "allow")["parser"]
        assert loaded == dict.fromkeys(["import", "sweep", "gains", "plot", "simulate", "check"],
                                       [])
        result = _fresh(_STDLIB_FOOTPRINT_SCRIPT, tmp_path / "out", *parser)
        assert result == {"import": [], "help": [0, []], "config_error": [2, []],
                          "plot": [0, []]}

    def test_front_end_and_plot_without_numpy(self, tmp_path, capsys):
        normal, bare = tmp_path / "normal", tmp_path / "bare"
        small = ["--n_schedule", "8,16", "--lambda_count", "20", "--t_end", "1.0", "--h", "0.1"]
        for command in ("sweep", "simulate"):
            assert main([command, *small, "--output_dir", str(normal)]) == 0
        shutil.copytree(normal, bare)
        assert main(["plot", "--output_dir", str(normal)]) == 0
        plotted = capsys.readouterr().out.splitlines()[-1] + "\n"

        result = _fresh(_NUMPY_FREE_SCRIPT, bare)
        assert result["import"] == ["issgains", "issgains.cli", "issgains.config"]
        assert result["help"] == [0, True]
        assert result["gains_nan"] == [2, "error: a must lie in [1e-100, 1e+100], got nan\n"]
        assert result["check_lambda"] == [
            2, f"error: lambda_count is 1099511627776, above MAX_LAMBDA_COUNT = {MAX_LAMBDA_COUNT}\n"]
        assert result["plot"] == [0, plotted]
        assert result["numpy_loaded"] is False
        assert result["numpy_importable"] is False
        svgs = sorted(path.name for path in normal.glob("*.svg"))
        assert len(svgs) == 6
        assert sorted(path.name for path in bare.glob("*.svg")) == svgs
        for name in svgs:
            assert (bare / name).read_bytes() == (normal / name).read_bytes(), name


# Registers a hook before importing the CLI; atexit runs hooks last in, first
# out, so the hook runs after every exit handler the import registered.  It
# prints the freeze count at start-up (not 0 on CPython 3.12) and at exit.
_FREEZE_AT_EXIT_SCRIPT = """
import atexit, gc, json
start = gc.get_freeze_count()
atexit.register(lambda: print(json.dumps([start, gc.get_freeze_count()])))
import issgains.cli
"""

# The console script's entry, as the benchmark runs it.
_CLI_SCRIPT = "import sys\nfrom issgains.cli import main\nsys.exit(main())"

TINY = ["--n_schedule", "8,16", "--lambda_count", "20", "--t_end", "1.0", "--h", "0.1"]


class TestExitPath:
    """Every process that imports the front end freezes its heap at exit, so
    CPython's shutdown collections skip it; nothing is lost by that."""

    def test_heap_frozen_at_exit(self):
        start, at_exit = _fresh(_FREEZE_AT_EXIT_SCRIPT)
        assert at_exit > start

    def test_processes_complete_their_output(self, tmp_path, capsys):
        process_dir, inline_dir = tmp_path / "process", tmp_path / "inline"
        for command in ("sweep", "gains", "simulate"):
            proc = _run_fresh(_CLI_SCRIPT, command, *TINY, "--output_dir", process_dir)
            assert proc.returncode == 0, proc.stderr
            assert main([command, *TINY, "--output_dir", str(inline_dir)]) == 0
            inline = capsys.readouterr().out
            assert proc.stdout == inline.replace(str(inline_dir), str(process_dir)), command
        assert proc.stdout.splitlines()[-1].startswith("bangbang:")
        names = sorted(os.listdir(inline_dir))
        assert names == sorted(os.listdir(process_dir))
        assert len(names) == 6
        for name in names:
            assert (process_dir / name).read_bytes() == (inline_dir / name).read_bytes(), name


class TestNoHandleLeft:
    """The heap freeze at exit leaves a handle in a reference cycle
    unfinalized, so no command may leave one for the collector to close."""

    @pytest.mark.parametrize("command", ["sweep", "gains", "simulate", "check", "plot"])
    def test_no_resource_warning(self, tmp_path, capsys, monkeypatch, command):
        unraisable = []
        # A ResourceWarning raised in a finalizer cannot propagate; it reaches
        # sys.unraisablehook instead.
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        args = [*TINY, "--output_dir", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            if command == "plot":
                assert main(["sweep", *args]) == 0
                assert main(["simulate", *args]) == 0
            assert main([command, *args]) == 0
            gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []
