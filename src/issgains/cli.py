"""Command-line front end.

Commands: sweep, gains, simulate, check, plot.  Configuration comes from a
flat key = value file plus --key value overrides; flags win.  Exit codes:
0 success; 1 a failing diagnostic verdict, a negative certified margin, no
certified gain (a sweep limit that did not converge, or a gain constant
that is not finite and positive, as when mu_p mu_e overflows or
underflows) or a K-constant integral that failed; 2 usage or config error,
or a missing, unreadable or malformed CSV given to plot.

Import rule: at module level this module imports the standard library and
``issgains.config`` alone, so that ``plot``, ``--help`` and every exit-2
config error run without numpy.  Each command imports the layers it runs
inside its own body, at call time: ``sweep`` and ``gains`` load neither
``simulate`` nor ``svgplot``, and ``plot`` loads ``svgplot`` only.
"""

import argparse
import math
import os
import sys as _sys

from .config import (
    CSV_HEADER,
    PARSERS,
    ConfigError,
    LimitError,
    QuadratureError,
    RunConfig,
    file_overrides,
    parse_config,
    step_count,
    validated,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "dispatch", "main"]

# Rows of a trajectory CSV formatted per write.
CSV_BLOCK_ROWS = 2**16
TRAJ_HEADER = "t,norm"


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _path(cfg: RunConfig):
    from .fattorini import PathSpec

    return PathSpec(cfg.lambda_min, cfg.lambda_max, cfg.lambda_count)


def _records(cfg: RunConfig) -> list:
    from .sweep import run_sweep

    return run_sweep(cfg.n_schedule, cfg.a, cfg.alpha, _path(cfg),
                     weight_exponent=cfg.weight_exponent, input_norm=cfg.u_norm)


def _run_chain(cfg: RunConfig):
    from .gains import assemble_gains

    if len(cfg.n_schedule) < 2:
        raise ConfigError("the gains are limits over n_schedule, which needs at least "
                          f"2 resolutions, got {len(cfg.n_schedule)}")
    return assemble_gains(_records(cfg), cfg.alpha, cfg.theta, mu_p=cfg.mu_p, mu_e=cfg.mu_e)


def _cmd_sweep(cfg: RunConfig) -> int:
    from .sweep import emit_csv

    records = _records(cfg)
    dest = _out(cfg, "sweep.csv")
    nbytes = emit_csv(records, dest)
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
        fh.write(TRAJ_HEADER + "\n")
        for start in range(0, traj.times.size, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            fh.write("".join(f"{t:.10g},{norm:.10g}\n" for t, norm in
                             zip(traj.times[block].tolist(), traj.norms[block].tolist())))


def _cmd_simulate(cfg: RunConfig) -> int:
    import numpy as np

    from .simulate import bang_bang, iss_margin, simulate
    from .systems import GridSpec, WeightedSpace, build_heat_dirichlet

    bundle = _run_chain(cfg)
    n = max(cfg.n_schedule)
    space = WeightedSpace(GridSpec(n), weight_exponent=1, input_norm=cfg.u_norm)
    system = build_heat_dirichlet(n, cfg.a, space)
    x0 = np.zeros(n - 1)
    steps = step_count(cfg.t_end, cfg.h)

    scenarios = {
        "onesided": np.array([[1.0, 0.0]]),
        "twosided": np.array([[1.0, 1.0]]),
        "bangbang": bang_bang(steps, cfg.seed, active=(0,)),
    }
    status = 0
    for label, u in scenarios.items():
        traj = simulate(system, x0, u, cfg.t_end, cfg.h)
        margin, at = iss_margin(traj, bundle, x0_norm=0.0)
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
    import numpy as np

    from . import fattorini
    from .systems import build_heat_dirichlet, build_preclosure_heat

    small = [n for n in cfg.n_schedule if n <= 256] or list(cfg.n_schedule[:2])
    if len(small) < 2:
        small = [small[0], 2 * small[0]]
    path = _path(cfg)
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


def _read_csv(path: str, header: str) -> dict:
    """The columns of a CSV written with ``header``, keyed by name: at least
    one row of finite floats, each with one field per column.  A file that
    cannot be read or is not so raises ConfigError naming it and, where it
    can, the line."""
    names = header.split(",")
    rows = []
    try:
        # Undecodable bytes become U+FFFD and so fail the header or float parse.
        fh = open(path, errors="replace")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        first = fh.readline().strip()
        if first != header:
            raise ConfigError(f"{path}: expected the header {header!r}, got {first!r}")
        for lineno, line in enumerate(fh, start=2):
            tokens = line.strip().split(",")
            if tokens == [""]:
                continue
            if len(tokens) != len(names):
                raise ConfigError(f"{path}: line {lineno}: expected {len(names)} fields, "
                                  f"got {len(tokens)}")
            try:
                row = [float(tok) for tok in tokens]
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise ConfigError(f"{path}: line {lineno}: a value is not finite")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return dict(zip(names, zip(*rows)))


def _cmd_plot(cfg: RunConfig) -> int:
    from . import svgplot

    sweep_path = os.path.join(cfg.output_dir, "sweep.csv")
    if not os.path.exists(sweep_path):
        print(f"error: {sweep_path} not found; run the sweep command first", file=_sys.stderr)
        return 2
    data = _read_csv(sweep_path, CSV_HEADER)
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
            tdata = _read_csv(os.path.join(cfg.output_dir, name), TRAJ_HEADER)
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
    for name in PARSERS:
        parser.add_argument(f"--{name}", dest=f"opt_{name}")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        overrides = {}
        if args.config:
            with open(args.config) as fh:
                overrides = file_overrides(fh.read())
        # Flags win over the file; the merged result is validated once.
        for name, parse in PARSERS.items():
            raw = getattr(args, f"opt_{name}")
            if raw is not None:
                try:
                    overrides[name] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for --{name}: {exc}") from exc
        cfg = validated(overrides)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    return dispatch(args.command, cfg)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
