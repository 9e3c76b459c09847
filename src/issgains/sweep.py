"""Resolution sweep: per-n spectral constants and the CSV table of the
convergence study, returned as text for the front end to write.  The limits
over n are taken in ``gains.assemble_gains``."""

from typing import NamedTuple

import numpy as np

from .config import CSV_HEADER
from .gains import PathSpec, frac_control_norm, growth_bound, sector_bound
from .systems import WeightedSpace, build_heat_dirichlet

__all__ = [
    "SweepRecord",
    "run_sweep",
    "emit_csv",
]


class _SweepRecord(NamedTuple):
    n: int
    omega_n: float
    d_n: float
    frac_norm_n: float


class SweepRecord(_SweepRecord):
    """The decay rate, resolvent constant and fractional control norm at
    one resolution n, all finite."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for value in (self.omega_n, self.d_n, self.frac_norm_n):
            if not np.isfinite(value):
                raise ValueError(f"non-finite sweep record at n = {self.n}")
        return self


def run_sweep(n_schedule, a: float, alpha: float, path: PathSpec,
              weight_exponent: int = WeightedSpace._field_defaults["weight_exponent"],
              input_norm: str = WeightedSpace._field_defaults["input_norm"]) -> list:
    """One record per resolution: decay rate, resolvent constant and the
    fractional control-operator norm."""
    schedule = list(n_schedule)
    if not schedule:
        raise ValueError("empty resolution schedule")
    if any(m >= n for m, n in zip(schedule, schedule[1:])) or any(n < 2 for n in schedule):
        raise ValueError("schedule must be strictly increasing with every n >= 2")
    records = []
    for n in schedule:
        sys = build_heat_dirichlet(n, a, weight_exponent, input_norm)
        records.append(SweepRecord(n=n, omega_n=growth_bound(sys), d_n=sector_bound(sys, path),
                                   frac_norm_n=frac_control_norm(sys, alpha)))
        # Freed before the next resolution's system and spectrum are made.
        del sys
    return records


def _fmt(value: float) -> str:
    return np.format_float_positional(value, precision=10, unique=False,
                                      fractional=False, trim="k")


def emit_csv(records) -> str:
    """The sweep table as ASCII text, one line per record (``run_sweep``
    makes at least one) and a newline after the last; floats carry 10
    significant digits."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.n},{_fmt(r.omega_n)},{_fmt(r.d_n)},{_fmt(r.frac_norm_n)}")
    return "\n".join(lines) + "\n"
