"""Resolution sweep: per-n spectral constants and the CSV table of the
convergence study.  The limits over n are taken in ``gains.assemble_gains``."""

import os
from dataclasses import dataclass

import numpy as np

from .config import CSV_HEADER
from .fattorini import PathSpec
from .gains import frac_control_norm, growth_bound, sector_bound
from .systems import GridSpec, WeightedSpace, build_heat_dirichlet

__all__ = [
    "SweepRecord",
    "run_sweep",
    "emit_csv",
]


@dataclass(frozen=True)
class SweepRecord:
    n: int
    omega_n: float
    d_n: float
    frac_norm_n: float

    def __post_init__(self):
        for value in (self.omega_n, self.d_n, self.frac_norm_n):
            if not np.isfinite(value):
                raise ValueError(f"non-finite sweep record at n = {self.n}")


def run_sweep(n_schedule, a: float, alpha: float, path: PathSpec,
              weight_exponent: int = 2, input_norm: str = "max") -> list:
    """One record per resolution: decay rate, resolvent constant and the
    fractional control-operator norm."""
    schedule = list(n_schedule)
    if not schedule:
        raise ValueError("empty resolution schedule")
    if any(m >= n for m, n in zip(schedule, schedule[1:])) or any(n < 2 for n in schedule):
        raise ValueError("schedule must be strictly increasing with every n >= 2")
    records = []
    for n in schedule:
        space = WeightedSpace(GridSpec(n), weight_exponent=weight_exponent, input_norm=input_norm)
        sys = build_heat_dirichlet(n, a, space)
        records.append(SweepRecord(n=n, omega_n=growth_bound(sys), d_n=sector_bound(sys, path),
                                   frac_norm_n=frac_control_norm(sys, alpha)))
    return records


def _fmt(value: float) -> str:
    return np.format_float_positional(value, precision=10, unique=False,
                                      fractional=False, trim="k")


def emit_csv(records, destination) -> int:
    """Write the sweep table; floats carry 10 significant digits.

    Returns the number of bytes written.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.n},{_fmt(r.omega_n)},{_fmt(r.d_n)},{_fmt(r.frac_norm_n)}")
    payload = ("\n".join(lines) + "\n").encode("ascii")
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        os.makedirs(os.path.dirname(os.path.abspath(destination)), exist_ok=True)
        with open(destination, "wb") as fh:
            fh.write(payload)
    return len(payload)
