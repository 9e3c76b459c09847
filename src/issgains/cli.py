"""Command-line front end.

Usage: issgains <command> [--config FILE] [--KEY VALUE | --KEY=VALUE ...]

Commands: sweep, gains, simulate, check, plot.  Configuration comes from a
flat key = value file plus --key value overrides; flags win.  The command
may stand anywhere among the options; a key may be shortened to any prefix
that names it alone, and the last of repeated flags wins.  Exit codes:
0 success; 1 a failing diagnostic verdict, a negative certified margin or
no certified gain (a sweep limit that did not converge, a gain constant
that is not finite and positive, as when mu_p mu_e overflows, a gamma
slope below the exact gain, or a K-constant integral that failed); 2 usage
or config error, a missing, unreadable or malformed CSV given to plot, or
an artifact that cannot be written (the artifacts written before it stay
on disk).

Import rule: at module level this module imports the standard library and
``issgains.config`` alone, so that ``plot``, ``--help`` and every exit-2
config error run without numpy.  Each command imports the layers it runs
inside its own body, at call time: ``sweep``, ``gains`` and ``check`` load
neither ``simulate`` nor ``svgplot``, ``plot`` loads ``svgplot`` only, only
``check`` loads ``fattorini``, and none loads numpy.random or numpy.polynomial.
The arguments are parsed here, from ``PARSERS``, so that no process loads
argparse or the gettext and locale modules it pulls in.

Exit rule: importing this module registers ``gc.freeze`` to run at
interpreter exit, so every process that runs the front end skips the
shutdown collections over the objects it leaves alive.  In return, an
object left in a reference cycle is not finalized at exit.  So one
function, ``_write``, writes every artifact, through a handle it closes
explicitly, and always as ASCII with LF line ends; the numeric layers
return the text and touch no file.
"""

import atexit
import gc
import math
import os
import sys as _sys

from .config import (
    CSV_HEADER,
    PARSERS,
    ConfigError,
    LimitError,
    RunConfig,
    file_overrides,
    step_count,
    validated,
)

__all__ = ["RunConfig", "ConfigError", "dispatch", "main"]

# CPython's finalization runs full collections over every tracked object even
# when gc is disabled; after ``import numpy`` that is about 20k objects and
# 30-40 ms per process, more than main() takes at the default config.  The
# freeze, run at exit, moves them all into the permanent generation, which
# those collections skip.  os._exit would skip them too, but also the other
# atexit handlers and the flush of stdio; gc.disable() at exit saves little.
# The cost: an object in a reference cycle at exit is never finalized, so
# every artifact is written by _write, through an explicitly closed handle.
atexit.register(gc.freeze)

# Rows of a trajectory CSV formatted per chunk; the bytes written do not
# depend on it.  Writing a 6001-row CSV peaks at 0.85 MB of traced memory
# when all of it is formatted at once, at 0.15 MB in blocks of 1024 rows.
CSV_BLOCK_ROWS = 2**10
TRAJ_HEADER = "t,norm"


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _write(cfg: RunConfig, name: str, chunks) -> int:
    """Write the text chunks, in order, to the artifact ``name`` in
    output_dir, and return the number of bytes written."""
    with open(_out(cfg, name), "w", encoding="ascii", newline="\n") as fh:
        return sum(map(fh.write, chunks))


def _path(cfg: RunConfig):
    from .gains import PathSpec

    return PathSpec(cfg.lambda_min, cfg.lambda_max)


def _records(cfg: RunConfig) -> list:
    from .sweep import run_sweep

    return run_sweep(cfg.n_schedule, cfg.a, cfg.alpha, _path(cfg),
                     weight_exponent=cfg.weight_exponent, input_norm=cfg.u_norm)


def _run_chain(cfg: RunConfig):
    from .gains import assemble_gains

    return assemble_gains(_records(cfg), cfg.alpha, mu_p=cfg.mu_p, mu_e=cfg.mu_e,
                          weight_exponent=cfg.weight_exponent)


def _cmd_sweep(cfg: RunConfig) -> int:
    from .sweep import emit_csv

    records = _records(cfg)
    nbytes = _write(cfg, "sweep.csv", [emit_csv(records)])
    print(f"wrote {_out(cfg, 'sweep.csv')} ({nbytes} bytes, {len(records)} resolutions)")
    return 0


def _cmd_gains(cfg: RunConfig) -> int:
    # The GainBundle fields in order, each under its printed name.
    rows = list(zip(("alpha", "theta", "K1", "K2", "kappa", "frac_norm_limit", "beta_M",
                     "beta_omega", "gamma_slope"), _run_chain(cfg), strict=True))
    width = max(len(name) for name, _ in rows)
    text = "".join(f"{name:<{width}}  {value:.10g}\n" for name, value in rows)
    kv = "".join(f"{name} = {value:.10g}\n" for name, value in rows)
    _write(cfg, "gains.txt", [text])
    _write(cfg, "gains.kv", [kv])
    print(text, end="")
    return 0


def _traj_csv(traj):
    # The header, then one chunk per CSV_BLOCK_ROWS rows, so that the
    # formatted text never grows with the step count, each formatted by a
    # single % of the block's values interleaved as (t, norm) pairs.
    yield TRAJ_HEADER + "\n"
    for start in range(0, traj.times.size, CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        times = traj.times[block].tolist()
        flat = [None] * (2 * len(times))
        flat[0::2] = times
        flat[1::2] = traj.norms[block].tolist()
        yield "%.10g,%.10g\n" * len(times) % tuple(flat)


def _cmd_simulate(cfg: RunConfig) -> int:
    import numpy as np

    from .simulate import bang_bang, iss_margin, simulate
    from .systems import build_heat_dirichlet

    bundle = _run_chain(cfg)
    n = max(cfg.n_schedule)
    system = build_heat_dirichlet(n, cfg.a, weight_exponent=1, input_norm=cfg.u_norm)
    x0 = np.zeros(n - 1)
    steps = step_count(cfg.t_end, cfg.h)

    # Each input is made when its scenario runs, and each trajectory is
    # dropped before the next is simulated, so that only one scenario's
    # step-length arrays are alive at a time.  The bang-bang input drives
    # the left end only: one column, for the system whose B keeps only the
    # left end's column.
    scenarios = (
        ("onesided", system, lambda: np.array([[1.0, 0.0]])),
        ("twosided", system, lambda: np.array([[1.0, 1.0]])),
        ("bangbang", system._replace(b_matrix=system.b_matrix[:, :1]),
         lambda: bang_bang(steps, cfg.seed, columns=1)),
    )
    status = 0
    for label, driven, make_input in scenarios:
        traj = simulate(driven, x0, make_input(), cfg.t_end, cfg.h)
        margin, at = iss_margin(traj, bundle, x0_norm=0.0)
        _write(cfg, f"traj_{label}.csv", _traj_csv(traj))
        del traj
        note = ""
        if label == "twosided":
            # A diagnostic only: simulate measures in p = 1, where the steady
            # state of u = (1, 1) has the exact gain sqrt((n-1)/n) as its norm,
            # but gamma_slope is certified in weight_exponent (see README).
            note = " (diagnostic only)"
        elif margin < 0.0:
            note = " (ISS bound violated)"
            status = 1
        print(f"{label}: min margin {margin:+.6f} at t = {at:.4g}{note}")
    return status


def _cmd_check(cfg: RunConfig) -> int:
    from . import fattorini
    from .systems import build_heat_dirichlet

    path = _path(cfg)
    systems = [build_heat_dirichlet(n, cfg.a) for n in cfg.n_schedule]
    reports = [
        fattorini.sector_diagnostic(systems, path),
        fattorini.resolvent_gap(path, cfg.lambda_count, cfg.a),
        fattorini.consistency_diagnostic(systems),
    ]
    mu_p, mu_e = fattorini.estimate_mu(cfg.n_schedule)
    blocks = [r.as_text() for r in reports]
    blocks.append(f"[INFO] operator bounds\n  mu_p = {mu_p:.10g}\n  mu_e = {mu_e:.10g}")
    text = "\n\n".join(blocks) + "\n"
    _write(cfg, "check.txt", [text])
    print(text, end="")
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

    sweep_path = _out(cfg, "sweep.csv")
    if not os.path.exists(sweep_path):
        raise ConfigError(f"{sweep_path} not found; run the sweep command first")
    data = _read_csv(sweep_path, CSV_HEADER)
    made = []
    for name, label, column, ylabel in (
            ("fig_omegan.svg", "omega_n", "omegan", "omega_n"),
            ("fig_dn.svg", "D_n", "Dn", "D_n"),
            ("fig_fracnorm.svg", "frac_norm", "AnalphaBnnorm", "fractional control norm")):
        _write(cfg, name, [svgplot.line_chart(data["n"], data[column], label, "n", ylabel)])
        made.append(name)
    for name in sorted(os.listdir(cfg.output_dir)):
        if name.startswith("traj_") and name.endswith(".csv"):
            tdata = _read_csv(_out(cfg, name), TRAJ_HEADER)
            out_name = f"fig_{name[:-len('.csv')]}.svg"
            _write(cfg, out_name, [svgplot.line_chart(tdata["t"], tdata["norm"], "norm",
                                                      "t", "state norm")])
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


def _refuse(command: str, cfg: RunConfig) -> None:
    """Raise ConfigError if ``command`` cannot run on the valid ``cfg``."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    if command in ("gains", "simulate") and len(cfg.n_schedule) < 2:
        raise ConfigError("the gains are limits over n_schedule, which needs at least "
                          f"2 resolutions, got {len(cfg.n_schedule)}")


def dispatch(command: str, cfg: RunConfig) -> int:
    try:
        # A refused run leaves no output_dir, and an unusable one costs no sweep.
        _refuse(command, cfg)
        try:
            os.makedirs(cfg.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output_dir {cfg.output_dir!r}: "
                              f"{exc.strerror or exc}") from None
        return COMMANDS[command](cfg)
    except LimitError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        # An artifact that cannot be written, such as one that exists as a
        # directory.
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=_sys.stderr)
        return 2


# Every long option; only help takes no value.
_OPTIONS = ("help", "config", *PARSERS)


def _help_text() -> str:
    defaults = RunConfig._field_defaults
    rows = [("-h, --help", "show this help and exit"),
            ("--config FILE", "flat key = value config file")]
    for name in PARSERS:
        value = defaults[name]
        shown = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        rows.append((f"--{name}", f"({shown})"))
    width = max(len(flag) for flag, _ in rows) + 2
    return "\n".join([
        "usage: issgains <command> [--config FILE] [--KEY VALUE | --KEY=VALUE ...]", "",
        "Certified L-infinity ISS gains for boundary-controlled diffusion.", "",
        f"commands: {', '.join(COMMANDS)}", "",
        "options (defaults in parentheses; flags win over the config file):",
        *(f"  {flag:<{width}}{text}" for flag, text in rows)]) + "\n"


def _option(name: str) -> str:
    """The option that ``--name`` means: the one spelled ``name``, or else
    the only one that ``name`` is a prefix of."""
    if name in _OPTIONS:
        return name
    matches = [option for option in _OPTIONS if name and option.startswith(name)]
    if len(matches) > 1:
        raise ConfigError(f"ambiguous option --{name}: could be "
                          + ", ".join(f"--{option}" for option in matches))
    if not matches:
        raise ConfigError(f"unknown option --{name}")
    return matches[0]


def _parse_argv(argv):
    """The command and the raw value of each option (``config`` included),
    the last one of each, from the argument list; None if it asks for
    help.  A token after ``--``, ``-`` and any token not starting with
    ``-`` is the command; the token after a flag is its value, whatever it
    starts with.  Raises ConfigError on the first token that fits none of
    this, and when no command is given."""
    command = None
    raw = {}
    tokens = iter(argv)
    options_done = False
    for token in tokens:
        if options_done or token == "-" or not token.startswith("-"):
            if command is not None:
                raise ConfigError(f"unexpected argument {token!r}: "
                                  f"the command is already {command!r}")
            command = token
        elif token == "--":
            options_done = True
        elif token == "-h":
            return None
        elif not token.startswith("--"):
            raise ConfigError(f"unknown option {token}")
        else:
            name, eq, value = token[2:].partition("=")
            name = _option(name)
            if name == "help":
                if eq:
                    raise ConfigError("--help takes no value")
                return None
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise ConfigError(f"--{name} needs a value")
            raw[name] = value
    if command is None:
        raise ConfigError(f"no command given; choose from {', '.join(COMMANDS)}")
    return command, raw


def main(argv=None) -> int:
    try:
        parsed = _parse_argv(_sys.argv[1:] if argv is None else argv)
        if parsed is None:
            print(_help_text(), end="")
            return 0
        command, raw = parsed
        overrides = {}
        if "config" in raw:
            # Never errors="replace": a U+FFFD would pass into output_dir.
            with open(raw["config"], encoding="utf-8") as fh:
                try:
                    text = fh.read()
                except UnicodeDecodeError as exc:
                    raise ConfigError(f"{raw['config']}: not UTF-8 at byte {exc.start}: "
                                      f"{exc.reason}") from None
            # A byte-order mark is dropped here, as utf-8-sig would count the
            # byte offset above from its end.
            try:
                overrides = file_overrides(text.removeprefix("\ufeff"))
            except ConfigError as exc:
                raise ConfigError(f"{raw['config']}: {exc}") from None
        # Flags win over the file; the merged result is validated once.
        for name, parse in PARSERS.items():
            if name in raw:
                try:
                    overrides[name] = parse(raw[name])
                except ValueError as exc:
                    raise ConfigError(f"bad value for --{name}: {exc}") from exc
        cfg = validated(overrides)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    return dispatch(command, cfg)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
