"""Run configuration, the shared constants and the two errors, in the
standard library alone.

The CLI front end needs these names before it knows its command, so they
live here and not in the numeric layers: ``import issgains.cli`` then loads
no numpy, and ``plot``, ``--help`` and every config error run without it.
``RunConfig`` is a ``collections.namedtuple``, whose class is built without
loading ``typing`` or ``inspect``.
The numeric layers import the names they share with the front end from
this module; nothing here imports another issgains module.
"""

import math
from collections import namedtuple

__all__ = [
    "RunConfig",
    "ConfigError",
    "LimitError",
    "DEFAULT_SCHEDULE",
    "CSV_HEADER",
    "MAX_STEPS",
    "MAX_N",
    "MAX_LAMBDA_COUNT",
    "PARSERS",
    "step_count",
    "file_overrides",
    "validated",
]

DEFAULT_SCHEDULE = (250, 500, 1000, 2000, 4000)
CSV_HEADER = "n,omegan,Dn,AnalphaBnnorm"
MAX_STEPS = 10**7
# The largest resolution n: at n = 10**6 check peaks highest, at 209.7 MB, and
# grows linearly in n above its 29.3 MB at n = 4, so about 1.8 GB at 10**7.
MAX_N = 10**7
# The largest lambda_count.  resolvent_gap evaluates a closed form at each
# point: check --n_schedule 8,16 took 0.18 s and 29.4 MB peak RSS at 400
# points and 0.26 s and 59.7 MB at 10**6 (one Intel Xeon core), about 30 B
# a point, which would be 30 TB at 2**40.
MAX_LAMBDA_COUNT = 10**6
# a only rescales time, so each constant is a power of a; outside this range
# the fractional norm can underflow to 0 (a = 2.3e-308) or overflow (1e-320).
A_RANGE = (1e-100, 1e100)


class ConfigError(ValueError):
    pass


class LimitError(RuntimeError):
    """No certified gain exists, the one exit-1 error.  Raised when a sweep
    limit fails its Cauchy check, when a certified constant is not finite
    and positive, when gamma_slope is below the exact gain, and when a
    K-constant integral does not converge within ``numerics.QUAD_MAX_LEVEL``
    step halvings (the message gives the best estimate) or has a non-finite
    sum."""


def step_count(t_end: float, h: float) -> int:
    """Number of steps h that make up [0, t_end]; t_end must be a whole
    number of steps, within a relative tolerance of 1e-9, and at least 1
    and at most MAX_STEPS of them."""
    if not t_end > 0.0 or not h > 0.0:
        raise ValueError(f"t_end and h must be positive, got {t_end} and {h}")
    ratio = t_end / h
    if not (math.isfinite(ratio) and math.isclose(ratio, round(ratio), rel_tol=1e-9)):
        raise ValueError(f"t_end = {t_end} is not a whole number of steps h = {h}")
    steps = round(ratio)
    # Only a ratio that underflowed to 0 gets here with no step, as with
    # h = inf or t_end = 5e-324, h = 10.
    if steps < 1:
        raise ValueError(f"t_end / h = {t_end} / {h} underflows to 0 steps; need at least 1")
    if steps > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {steps} > {MAX_STEPS}")
    return steps


def _parse_schedule(value: str) -> tuple:
    """The comma-separated resolutions, each plain decimal digits 0-9 with
    optional whitespace around them; an empty schedule raises ValueError,
    and so does an entry that is empty or holds anything else (a sign, an
    underscore, a non-ASCII digit), naming the entry."""
    if not value.strip():
        raise ValueError("the schedule is empty")
    tokens = [tok.strip() for tok in value.split(",")]
    for i, tok in enumerate(tokens, start=1):
        where = f"entry {i} of {len(tokens)} in {value!r}"
        if not tok:
            raise ValueError(f"{where} is empty")
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"{where} is {tok!r}, not plain decimal digits")
    return tuple(map(int, tokens))


# Each RunConfig field in field order, with its parser and default: the
# config keys and flags.
_FIELDS = (
    ("n_schedule", _parse_schedule, DEFAULT_SCHEDULE),
    ("a", float, 1.0),
    ("alpha", float, 0.5),
    ("lambda_min", float, 1e-4),
    ("lambda_max", float, 1e4),
    ("lambda_count", int, 400),
    ("weight_exponent", int, 2),
    ("u_norm", str, "max"),
    ("mu_p", float, 1.0),
    ("mu_e", float, 1.0),
    ("t_end", float, 3.0),
    ("h", float, 0.05),
    ("seed", int, 20240501),
    ("output_dir", str, "out"),
)
PARSERS = {name: parse for name, parse, _ in _FIELDS}


class RunConfig(namedtuple("RunConfig", list(PARSERS),
                           defaults=[default for _, _, default in _FIELDS])):
    """One run's settings, immutable; ``validate`` checks their ranges."""

    __slots__ = ()

    def validate(self) -> None:
        """Refuse each setting outside its range with a ConfigError.

        mu_p and mu_e must be at least 1: at p = 1 sampling is an exact
        isometry on the sine modes (mu_p = 1), and the hat extension's norm,
        max over n of sqrt((2 + cos(pi/n))/3), has supremum 1.  A smaller
        value certifies a gain that the scheme's own trajectories can break."""
        if not self.n_schedule or any(n < 2 for n in self.n_schedule):
            raise ConfigError("n_schedule entries must all be >= 2")
        for i, n in enumerate(self.n_schedule, start=1):
            if n > MAX_N:
                raise ConfigError(f"n_schedule entry {i} of {len(self.n_schedule)} is {n}, "
                                  f"above MAX_N = {MAX_N}")
        if list(self.n_schedule) != sorted(set(self.n_schedule)):
            raise ConfigError("n_schedule must be strictly increasing")
        if not A_RANGE[0] <= self.a <= A_RANGE[1]:
            raise ConfigError(f"a must lie in [{A_RANGE[0]:g}, {A_RANGE[1]:g}], got {self.a}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0 < self.lambda_min < self.lambda_max < math.inf:
            raise ConfigError("need 0 < lambda_min < lambda_max < inf, got "
                              f"{self.lambda_min} and {self.lambda_max}")
        if self.lambda_count < 2:
            raise ConfigError("lambda_count must be >= 2")
        if self.lambda_count > MAX_LAMBDA_COUNT:
            raise ConfigError(f"lambda_count is {self.lambda_count}, "
                              f"above MAX_LAMBDA_COUNT = {MAX_LAMBDA_COUNT}")
        if self.weight_exponent not in (1, 2):
            raise ConfigError(f"weight_exponent must be 1 or 2, got {self.weight_exponent}")
        if self.u_norm not in ("euclidean", "max"):
            raise ConfigError(f"u_norm must be 'euclidean' or 'max', got {self.u_norm!r}")
        if not (1 <= self.mu_p < math.inf and 1 <= self.mu_e < math.inf):
            raise ConfigError("mu_p and mu_e must be at least 1 and finite, got "
                              f"{self.mu_p} and {self.mu_e}")
        try:
            step_count(self.t_end, self.h)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")


def file_overrides(source: str) -> dict:
    """The parsed ``key = value`` pairs of a config file, not yet validated;
    a key may be set only once.  A ``#`` at the start of a line or after
    whitespace starts a comment; any other ``#`` is part of the value."""
    overrides = {}
    first_line = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        cut = next((i for i, ch in enumerate(raw)
                    if ch == "#" and (i == 0 or raw[i - 1].isspace())), None)
        line = raw[:cut].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        try:
            overrides[key] = PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return overrides


def validated(overrides: dict) -> RunConfig:
    cfg = RunConfig(**overrides)
    cfg.validate()
    return cfg
