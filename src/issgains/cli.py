"""Command-line front end.

Commands: sweep, gains, simulate, check, plot.  Configuration comes from a
flat key = value file plus --key value overrides; flags win.  Exit codes:
0 success, 1 any failing diagnostic verdict, a negative certified margin, a
sweep limit that did not converge or a K-constant integral that failed, 2
usage or config error.
"""

import argparse
import math
import os
import sys as _sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fattorini, simulate as sim, svgplot, sweep as sweep_mod
from .fattorini import PathSpec
from .gains import DEFAULT_THETA, GrowthBound, SectorBound, assemble_gains
from .numerics import QuadratureError
from .sweep import CSV_HEADER, DEFAULT_SCHEDULE
from .systems import GridSpec, WeightedSpace, build_heat_dirichlet, build_preclosure_heat

__all__ = ["RunConfig", "ConfigError", "parse_config", "dispatch", "main"]

# Cauchy tolerance of the sweep limits: the change over the last refinement.
LIMIT_TOL = 1e-3
# a only rescales time, so each constant is a power of a; outside this range
# the fractional norm can underflow to 0 (a = 2.3e-308) or overflow (1e-320).
A_RANGE = (1e-100, 1e100)
# Rows of a trajectory CSV formatted per write.
CSV_BLOCK_ROWS = 2**16


class ConfigError(ValueError):
    pass


class LimitError(RuntimeError):
    """A sweep limit failed its Cauchy check, so no certified gain exists."""


@dataclass(frozen=True)
class RunConfig:
    n_schedule: tuple = DEFAULT_SCHEDULE
    a: float = 1.0
    alpha: float = 0.5
    theta: float = DEFAULT_THETA
    lambda_min: float = 1e-4
    lambda_max: float = 1e4
    lambda_count: int = 400
    weight_exponent: int = 2
    u_norm: str = "max"
    mu_p: float = 1.0
    mu_e: float = 1.0
    t_end: float = 3.0
    h: float = 0.05
    seed: int = 20240501
    output_dir: str = "out"

    def validate(self) -> None:
        if not self.n_schedule or any(n < 2 for n in self.n_schedule):
            raise ConfigError("n_schedule entries must all be >= 2")
        if list(self.n_schedule) != sorted(set(self.n_schedule)):
            raise ConfigError("n_schedule must be strictly increasing")
        if not A_RANGE[0] <= self.a <= A_RANGE[1]:
            raise ConfigError(f"a must lie in [{A_RANGE[0]:g}, {A_RANGE[1]:g}], got {self.a}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not math.pi / 2 < self.theta < math.pi:
            raise ConfigError(f"theta must lie in (pi/2, pi), got {self.theta}")
        if not 0 < self.lambda_min < self.lambda_max < math.inf:
            raise ConfigError("need 0 < lambda_min < lambda_max < inf, got "
                              f"{self.lambda_min} and {self.lambda_max}")
        if self.lambda_count < 2:
            raise ConfigError("lambda_count must be >= 2")
        if self.weight_exponent not in (1, 2):
            raise ConfigError(f"weight_exponent must be 1 or 2, got {self.weight_exponent}")
        if self.u_norm not in ("euclidean", "max"):
            raise ConfigError(f"u_norm must be 'euclidean' or 'max', got {self.u_norm!r}")
        if not (0 < self.mu_p < math.inf and 0 < self.mu_e < math.inf):
            raise ConfigError("mu_p and mu_e must be positive and finite, got "
                              f"{self.mu_p} and {self.mu_e}")
        try:
            sim.step_count(self.t_end, self.h)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")

    def path(self) -> PathSpec:
        return PathSpec(self.lambda_min, self.lambda_max, self.lambda_count)


def _parse_schedule(value: str) -> tuple:
    return tuple(int(tok) for tok in value.split(",") if tok.strip())


# One parser per RunConfig field, in field order: the config keys and flags.
_PARSERS = {f.name: _parse_schedule if f.type is tuple else f.type for f in fields(RunConfig)}


def parse_config(source: str) -> RunConfig:
    """Parse flat ``key = value`` lines with # comments into a validated
    config; unknown keys and malformed lines raise with the offending line
    number."""
    return _validated(_file_overrides(source))


def _file_overrides(source: str) -> dict:
    """The parsed ``key = value`` pairs of a config file, not yet validated;
    a key may be set only once."""
    overrides = {}
    first_line = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        try:
            overrides[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return overrides


def _validated(overrides: dict) -> RunConfig:
    cfg = replace(RunConfig(), **overrides)
    cfg.validate()
    return cfg


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _records(cfg: RunConfig) -> list:
    return sweep_mod.run_sweep(cfg.n_schedule, cfg.a, cfg.alpha, cfg.path(),
                               weight_exponent=cfg.weight_exponent, input_norm=cfg.u_norm)


def _run_chain(cfg: RunConfig):
    if len(cfg.n_schedule) < 2:
        raise ConfigError("the gains are limits over n_schedule, which needs at least "
                          f"2 resolutions, got {len(cfg.n_schedule)}")
    # omega keeps its last value without a Cauchy gate: omega_n rises toward
    # its limit from below, so the last value is on the safe side.  D is a
    # supremum.  The fractional norm has no such direction, so it must converge.
    omega_hat, d_hat, frac_limit = sweep_mod.aggregate(_records(cfg), tol_omega=LIMIT_TOL,
                                                       tol_frac=LIMIT_TOL, mu_p=cfg.mu_p,
                                                       mu_e=cfg.mu_e)
    if not frac_limit.converged:
        raise LimitError(f"frac_norm_limit did not converge: last_delta = "
                         f"{frac_limit.last_delta:.6g} > {LIMIT_TOL:g}")
    gb = GrowthBound(m=1.0, omega=omega_hat.value)
    sb = SectorBound(d=d_hat.value)
    return assemble_gains(cfg.alpha, cfg.theta, gb, sb, frac_limit.value,
                          mu_e=cfg.mu_e, mu_p=cfg.mu_p)


def _cmd_sweep(cfg: RunConfig) -> int:
    records = _records(cfg)
    dest = _out(cfg, "sweep.csv")
    nbytes = sweep_mod.emit_csv(records, dest)
    print(f"wrote {dest} ({nbytes} bytes, {len(records)} resolutions)")
    return 0


def _cmd_gains(cfg: RunConfig) -> int:
    bundle = _run_chain(cfg)
    rows = [
        ("alpha", bundle.alpha),
        ("theta", bundle.theta),
        ("K1", bundle.k1),
        ("K2", bundle.k2),
        ("kappa", bundle.kappa),
        ("frac_norm_limit", bundle.frac_norm_limit),
        ("beta_M", bundle.beta_m),
        ("beta_omega", bundle.beta_omega),
        ("gamma_slope", bundle.gamma_slope),
    ]
    width = max(len(name) for name, _ in rows)
    text_lines = [f"{name:<{width}}  {value:.10g}" for name, value in rows]
    text = "\n".join(text_lines) + "\n"
    kv = "".join(f"{name} = {value:.10g}\n" for name, value in rows)
    with open(_out(cfg, "gains.txt"), "w") as fh:
        fh.write(text)
    with open(_out(cfg, "gains.kv"), "w") as fh:
        fh.write(kv)
    print(text, end="")
    return 0


def _traj_csv(path: str, traj) -> None:
    # One write per CSV_BLOCK_ROWS rows, so that the formatted text never
    # grows with the step count.
    with open(path, "w") as fh:
        fh.write("t,norm\n")
        for start in range(0, traj.times.size, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            fh.write("".join(f"{t:.10g},{norm:.10g}\n" for t, norm in
                             zip(traj.times[block].tolist(), traj.norms[block].tolist())))


def _cmd_simulate(cfg: RunConfig) -> int:
    bundle = _run_chain(cfg)
    n = max(cfg.n_schedule)
    space = WeightedSpace(GridSpec(n), weight_exponent=1, input_norm=cfg.u_norm)
    system = build_heat_dirichlet(n, cfg.a, space)
    x0 = np.zeros(n - 1)
    steps = sim.step_count(cfg.t_end, cfg.h)

    scenarios = {
        "onesided": np.array([[1.0, 0.0]]),
        "twosided": np.array([[1.0, 1.0]]),
        "bangbang": sim.bang_bang(steps, cfg.seed, active=(0,)),
    }
    status = 0
    for label, u in scenarios.items():
        traj = sim.simulate(system, x0, u, cfg.t_end, cfg.h)
        margin, at = sim.iss_margin(traj, bundle, x0_norm=0.0)
        _traj_csv(_out(cfg, f"traj_{label}.csv"), traj)
        note = ""
        if label == "twosided":
            # Reported as a diagnostic only: the two-sided constant case is
            # norm-convention sensitive (see README).
            note = " (diagnostic only)"
        elif margin < 0.0:
            note = " (ISS bound violated)"
            status = 1
        print(f"{label}: min margin {margin:+.6f} at t = {at:.4g}{note}")
    return status


def _cmd_check(cfg: RunConfig) -> int:
    small = [n for n in cfg.n_schedule if n <= 256] or list(cfg.n_schedule[:2])
    if len(small) < 2:
        small = [small[0], 2 * small[0]]
    path = cfg.path()
    systems = [build_heat_dirichlet(n, cfg.a) for n in small]
    pre_systems = [build_preclosure_heat(n, cfg.a) for n in small if n <= 64] or [
        build_preclosure_heat(16, cfg.a)
    ]
    probes = [
        ("sin_pi", lambda x: np.sin(np.pi * x), lambda x: -np.pi**2 * np.sin(np.pi * x)),
        ("parabola", lambda x: x * (1 - x), lambda x: -2.0),
    ]
    reports = [
        fattorini.sector_diagnostic(systems, path),
        fattorini.resolvent_gap(16, 32, path, probe_modes=(1,), a=cfg.a),
        fattorini.consistency_diagnostic(systems, probes),
        fattorini.right_inverse_gap(pre_systems),
    ]
    mu_p, mu_e = fattorini.estimate_mu([p[1] for p in probes], small)
    blocks = [r.as_text() for r in reports]
    blocks.append(f"[INFO] empirical operator bounds\n  mu_p = {mu_p:.6f}\n  mu_e = {mu_e:.6f}")
    kv_blocks = [r.as_kv() for r in reports]
    kv_blocks.append(f"mu_p = {mu_p:.10g}\nmu_e = {mu_e:.10g}")
    text = "\n\n".join(blocks) + "\n\n" + "\n".join(kv_blocks) + "\n"
    with open(_out(cfg, "check.txt"), "w") as fh:
        fh.write(text)
    print("\n\n".join(blocks))
    return 1 if any(r.verdict == "fail" for r in reports) else 0


def _read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(tok) for tok in line.strip().split(",")] for line in fh if line.strip()]
    cols = list(zip(*rows)) if rows else [[] for _ in header]
    return dict(zip(header, cols))


def _cmd_plot(cfg: RunConfig) -> int:
    sweep_path = os.path.join(cfg.output_dir, "sweep.csv")
    if not os.path.exists(sweep_path):
        print(f"error: {sweep_path} not found; run the sweep command first", file=_sys.stderr)
        return 2
    data = _read_csv(sweep_path)
    if list(data) != CSV_HEADER.split(","):
        print(f"error: unexpected columns in {sweep_path}", file=_sys.stderr)
        return 2
    ns = data["n"]
    svgplot.line_chart(_out(cfg, "fig_omegan.svg"), {"omega_n": (ns, data["omegan"])},
                       xlabel="n", ylabel="omega_n")
    svgplot.line_chart(_out(cfg, "fig_dn.svg"), {"D_n": (ns, data["Dn"])},
                       xlabel="n", ylabel="D_n")
    svgplot.line_chart(_out(cfg, "fig_fracnorm.svg"),
                       {"frac_norm": (ns, data["AnalphaBnnorm"])},
                       xlabel="n", ylabel="fractional control norm")
    made = ["fig_omegan.svg", "fig_dn.svg", "fig_fracnorm.svg"]
    for name in sorted(os.listdir(cfg.output_dir)):
        if name.startswith("traj_") and name.endswith(".csv"):
            tdata = _read_csv(os.path.join(cfg.output_dir, name))
            label = name[len("traj_"):-len(".csv")]
            out_name = f"fig_traj_{label}.svg"
            svgplot.line_chart(_out(cfg, out_name), {"norm": (tdata["t"], tdata["norm"])},
                               xlabel="t", ylabel="state norm")
            made.append(out_name)
    print("wrote " + ", ".join(made))
    return 0


COMMANDS = {
    "sweep": _cmd_sweep,
    "gains": _cmd_gains,
    "simulate": _cmd_simulate,
    "check": _cmd_check,
    "plot": _cmd_plot,
}


def dispatch(command: str, cfg: RunConfig) -> int:
    if command not in COMMANDS:
        print(f"error: unknown command {command!r}; choose from {', '.join(COMMANDS)}",
              file=_sys.stderr)
        return 2
    # Before any work, so that an unusable directory costs no sweep.
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use output_dir {cfg.output_dir!r}: {exc.strerror or exc}",
              file=_sys.stderr)
        return 2
    try:
        return COMMANDS[command](cfg)
    except (LimitError, QuadratureError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="issgains",
        description="Certified L-infinity ISS gains for boundary-controlled diffusion",
    )
    parser.add_argument("command", help=f"one of: {', '.join(COMMANDS)}")
    parser.add_argument("--config", help="flat key = value config file")
    for name in _PARSERS:
        parser.add_argument(f"--{name}", dest=f"opt_{name}")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        overrides = {}
        if args.config:
            with open(args.config) as fh:
                overrides = _file_overrides(fh.read())
        # Flags win over the file; the merged result is validated once.
        for name, parse in _PARSERS.items():
            raw = getattr(args, f"opt_{name}")
            if raw is not None:
                try:
                    overrides[name] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for --{name}: {exc}") from exc
        cfg = _validated(overrides)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    return dispatch(args.command, cfg)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
