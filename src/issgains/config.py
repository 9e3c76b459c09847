"""Run configuration, the shared constants and the exit-1 errors, in the
standard library alone.

The CLI front end needs these names before it knows its command, so they
live here and not in the numeric layers: ``import issgains.cli`` then loads
no numpy, and ``plot``, ``--help`` and every config error run without it.
The numeric layers import the names they share with the front end from
this module; nothing here imports another issgains module.
"""

import math
from dataclasses import dataclass, fields, replace

__all__ = [
    "RunConfig",
    "ConfigError",
    "LimitError",
    "QuadratureError",
    "DEFAULT_SCHEDULE",
    "DEFAULT_THETA",
    "CSV_HEADER",
    "MAX_STEPS",
    "PARSERS",
    "step_count",
    "parse_config",
    "file_overrides",
    "validated",
]

DEFAULT_SCHEDULE = (250, 500, 1000, 2000, 4000)
# Infimum of |cos(theta)|^-1 over the admissible interval for self-adjoint
# negative-definite generators (analyticity angle pi/2).
DEFAULT_THETA = math.pi * (1.0 - 1e-9)
CSV_HEADER = "n,omegan,Dn,AnalphaBnnorm"
MAX_STEPS = 10**7
# a only rescales time, so each constant is a power of a; outside this range
# the fractional norm can underflow to 0 (a = 2.3e-308) or overflow (1e-320).
A_RANGE = (1e-100, 1e100)


class ConfigError(ValueError):
    pass


class LimitError(RuntimeError):
    """No certified gain exists: a sweep limit failed its Cauchy check, or a
    certified constant is not finite and positive."""


class QuadratureError(RuntimeError):
    """Raised when an integral does not converge within
    ``numerics.QUAD_MAX_LEVEL`` step halvings or ``numerics.QUAD_EVAL_BUDGET``
    evaluations, or when its sum is not finite.

    Carries the best available estimate in ``best_estimate``.
    """

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


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
            step_count(self.t_end, self.h)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")


def _parse_schedule(value: str) -> tuple:
    return tuple(int(tok) for tok in value.split(",") if tok.strip())


# One parser per RunConfig field, in field order: the config keys and flags.
PARSERS = {f.name: _parse_schedule if f.type is tuple else f.type for f in fields(RunConfig)}


def parse_config(source: str) -> RunConfig:
    """Parse flat ``key = value`` lines with # comments into a validated
    config; unknown keys and malformed lines raise with the offending line
    number."""
    return validated(file_overrides(source))


def file_overrides(source: str) -> dict:
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
    cfg = replace(RunConfig(), **overrides)
    cfg.validate()
    return cfg
