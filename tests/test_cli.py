import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import issgains
import issgains.cli as cli
import issgains.gains as gains
import issgains.numerics as numerics
import issgains.sweep as sweep
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
    @pytest.mark.parametrize("mu, value", [("1e200", "inf"), ("1e-200", "0")])
    def test_no_certified_gain_from_extreme_mu(self, tmp_path, capsys, command, mu, value):
        # mu_p mu_e overflows to inf or underflows to 0, and D, K2 and beta_M
        # with it; neither bound certifies anything.
        code = main([command, "--n_schedule", "16,32,64", "--mu_p", mu, "--mu_e", mu,
                     "--output_dir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: K2 = {value} is not finite and positive, "
                                "so no certified gain exists\n")
        assert captured.out == ""
        assert not [name for name in os.listdir(tmp_path)
                    if name == "gains.kv" or name.startswith("traj_")]

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
        [((records, alpha, theta), bundle)] = calls
        # K1 = omega^alpha for M = 1, and K2 = D pi/sin(pi alpha) / (Gamma(1-alpha) pi |cos theta|).
        assert bundle.k1 == pytest.approx(bundle.beta_omega**alpha, rel=1e-10)
        d = max(r.d_n for r in records)
        k2 = d / (math.gamma(1.0 - alpha) * abs(math.cos(theta)) * math.sin(math.pi * alpha))
        assert bundle.k2 == pytest.approx(k2, rel=1e-10)
        assert f"K1 = {bundle.k1:.10g}\n" in (tmp_path / "gains.kv").read_text()


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

    def test_default_config(self, tmp_path, capsys):
        assert main(["gains", "--output_dir", str(tmp_path)]) == 0
        assert (tmp_path / "gains.kv").read_text() == self.REFERENCE_KV
        text = (tmp_path / "gains.txt").read_text()
        assert [line.split() for line in text.splitlines()] == \
            [line.split(" = ") for line in self.REFERENCE_KV.splitlines()]
        assert capsys.readouterr().out == text


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
        # The commands import run_sweep from sweep at call time.
        monkeypatch.setattr(sweep, "run_sweep", lambda *a, **k: entered.append(1))
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
# so far, and under "issgains" the issgains modules loaded so far.  Arguments:
# output dir, n_schedule, and "refuse" to make every scipy import fail.
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

def loaded(package="scipy"):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

stages = {"import": loaded(), "issgains": {"import": loaded("issgains")}}
small = ["--n_schedule", schedule, "--lambda_count", "20", "--output_dir", out_dir]
for command in ("sweep", "gains", "plot", "simulate", "check"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command] + small)
    stages[command] = [code, loaded(), len(eigh_calls)]
    stages["issgains"][command] = loaded("issgains")
try:
    import scipy
    stages["scipy_importable"] = True
except ImportError:
    stages["scipy_importable"] = False
print(json.dumps(stages))
"""


# Refuses every numpy import, then imports the CLI and runs --help, a config
# error and plot over the CSVs in the output dir given as its argument;
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


def _fresh(script, *argv):
    # A fresh interpreter, since this test process has imported numpy and
    # scipy already.
    src = os.path.dirname(os.path.dirname(issgains.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
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
        assert result["plot"] == [0, plotted]
        assert result["numpy_loaded"] is False
        assert result["numpy_importable"] is False
        svgs = sorted(path.name for path in normal.glob("*.svg"))
        assert len(svgs) == 6
        assert sorted(path.name for path in bare.glob("*.svg")) == svgs
        for name in svgs:
            assert (bare / name).read_bytes() == (normal / name).read_bytes(), name
