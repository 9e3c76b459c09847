import json
import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
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

    def test_duplicate_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "dup.cfg"
        cfg_file.write_text("alpha = 0.3\n# later\nalpha = 0.6\n")
        assert main(["gains", "--config", str(cfg_file), "--output_dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3: duplicate key 'alpha' (first set on line 1)\n"

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
                                      # the fractional norm overflows, and underflows
                                      "a = 1e-320", "a = 2.3e-308",
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

    def test_trajectory_csv_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
        times = [0.1 * i for i in range(10)]
        norms = [math.exp(-t) / 3.0 for t in times]
        traj = SimpleNamespace(times=np.array(times), norms=np.array(norms))
        cli._traj_csv(tmp_path / "traj.csv", traj)
        expected = "t,norm\n" + "".join(f"{t:.10g},{r:.10g}\n" for t, r in zip(times, norms))
        assert (tmp_path / "traj.csv").read_text() == expected

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

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/x.cfg"]) == 2

    def test_unknown_command_via_main(self, tmp_path, capsys):
        assert main(["nope", "--output_dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, output_dir", [("sweep", ""), ("gains", "afile")])
    def test_unusable_output_dir_exits_before_work(self, tmp_path, capsys, monkeypatch,
                                                   command, output_dir):
        (tmp_path / "afile").write_text("")
        monkeypatch.chdir(tmp_path)
        entered = []
        monkeypatch.setattr(cli.sweep_mod, "run_sweep", lambda *a, **k: entered.append(1))
        assert main([command, "--n_schedule", "8,16", "--output_dir", output_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot use output_dir {output_dir!r}: ")
        assert err.count("\n") == 1
        assert entered == []


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

    def test_trajectory_csv_written_in_blocks(self, tmp_path, capsys, monkeypatch):
        # 30000 steps at n = 4, where the rows outweigh the state: formatting
        # each whole CSV before one write peaks at 6.0 MB, blocks of 1024
        # rows at 3.8 MB.
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 1024)
        code, peak = self.traced_peak(["simulate", "--n_schedule", "2,4", "--h", "1e-4",
                                       "--output_dir", str(tmp_path)])
        assert code == 0
        assert peak < 5 * 2**20
        assert len((tmp_path / "traj_bangbang.csv").read_text().splitlines()) == 30002


# Runs every command in a fresh interpreter and prints, per command, its exit
# code, the scipy modules loaded so far and the number of np.linalg.eigh calls
# so far.  Arguments: output dir, n_schedule, and "refuse" to make every scipy
# import fail.
_FOOTPRINT_SCRIPT = """
import contextlib, importlib.abc, io, json, sys
import numpy as np

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None

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

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {"import": loaded()}
small = ["--n_schedule", schedule, "--lambda_count", "20", "--output_dir", out_dir]
for command in ("sweep", "plot", "gains", "simulate", "check"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command] + small)
    stages[command] = [code, loaded(), len(eigh_calls)]
try:
    import scipy
    stages["scipy_importable"] = True
except ImportError:
    stages["scipy_importable"] = False
print(json.dumps(stages))
"""


def _footprint(out_dir, schedule, mode):
    # A fresh interpreter, since this test process has imported scipy already.
    src = os.path.dirname(os.path.dirname(issgains.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, str(out_dir), schedule, mode],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportFootprint:
    def test_scipy_loaded_only_where_called(self, tmp_path):
        stages = _footprint(tmp_path / "out", "8,16", "allow")
        assert stages["import"] == []
        for command in ("sweep", "plot", "gains", "simulate", "check"):
            assert stages[command][:2] == [0, []], command

    @pytest.mark.parametrize("schedule", ["8,16", "2,4"])
    def test_numpy_is_enough(self, tmp_path, schedule):
        # n = 2 gives a 1 x 1 generator; like every heat size it takes the
        # closed form, so no command calls numpy's dense eigh.
        stages = _footprint(tmp_path / "out", schedule, "refuse")
        assert stages["scipy_importable"] is False
        for command in ("sweep", "plot", "gains", "simulate", "check"):
            assert stages[command] == [0, [], 0], command
