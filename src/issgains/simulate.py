"""Exact-per-step simulation of the closed system under piecewise-constant
boundary inputs, ISS margin evaluation and semigroup convergence checks.

The stepping is an exponential integrator evaluated spectrally, so it is
exact (up to eigensolver accuracy) for the piecewise-constant input class;
no time-discretization error enters the ISS verification.  ``simulate``
steps in modal coordinates, O(n) per step, and maps the whole trajectory
back to node values in row blocks afterwards.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fattorini import DiagnosticReport
from .gains import GainBundle
from .systems import (
    ClosedControlSystem,
    GridSpec,
    WeightedSpace,
    analytic_heat_state,
    build_heat_dirichlet,
    extend,
    function_l2_norm,
    restrict,
)

__all__ = [
    "InputSignal",
    "Trajectory",
    "step_count",
    "step_exact",
    "simulate",
    "iss_margin",
    "trotter_kato_check",
]

MAX_STEPS = 10**7
# Trajectory rows mapped back from modal to node coordinates per block.
BLOCK_ROWS = 256


@dataclass(frozen=True)
class InputSignal:
    """Per-step boundary input samples in U = R^2 with their sup norm."""

    kind: str
    values: np.ndarray
    sup_norm: float

    @classmethod
    def constant(cls, u, space: WeightedSpace) -> "InputSignal":
        values = np.asarray(u, dtype=float).reshape(1, 2)
        return cls(kind="constant", values=values, sup_norm=space.input_sample_norm(values[0]))

    @classmethod
    def piecewise(cls, values, space: WeightedSpace) -> "InputSignal":
        values = np.asarray(values, dtype=float).reshape(-1, 2)
        sup = float(np.max(space.input_sample_norm(values), initial=0.0))
        return cls(kind="piecewise_constant", values=values, sup_norm=sup)

    @classmethod
    def bang_bang(cls, steps: int, space: WeightedSpace, seed: int,
                  active: tuple = (0, 1)) -> "InputSignal":
        """Random samples from {-1, 0, 1} on the active boundary components,
        zero elsewhere; reproducible from the 64-bit seed."""
        rng = np.random.default_rng(np.uint64(seed))
        values = np.zeros((steps, 2))
        for j in active:
            values[:, j] = rng.integers(-1, 2, size=steps).astype(float)
        if not np.any(values):
            values[0, active[0]] = 1.0
        sup = float(np.max(space.input_sample_norm(values)))
        return cls(kind="seeded_random_bang_bang", values=values, sup_norm=sup)

    def sample(self, step: int) -> np.ndarray:
        if self.kind == "constant":
            return self.values[0]
        return self.values[step]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # one row per time
    norms: np.ndarray


def step_count(t_end: float, h: float) -> int:
    """Number of steps h that make up [0, t_end]; t_end must be a whole
    number of steps, within a relative tolerance of 1e-9, and at most
    MAX_STEPS of them."""
    if not t_end > 0.0 or not h > 0.0:
        raise ValueError(f"t_end and h must be positive, got {t_end} and {h}")
    ratio = t_end / h
    if not (math.isfinite(ratio) and math.isclose(ratio, round(ratio), rel_tol=1e-9)):
        raise ValueError(f"t_end = {t_end} is not a whole number of steps h = {h}")
    steps = round(ratio)
    if steps > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {steps} > {MAX_STEPS}")
    return steps


def _step_factors(sys: ClosedControlSystem, h: float):
    """Eigenvectors V and the diagonal factors exp(lambda h) and
    (exp(lambda h) - 1) / lambda of one exact step of length h."""
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    eig = sys.eigendecomposition()
    lam = eig.eigenvalues
    if lam[-1] >= 0.0:
        raise ValueError("generator must be Hurwitz")
    decay = np.exp(lam * h)
    phi = (decay - 1.0) / lam
    return eig.eigenvectors, decay, phi


def step_exact(sys: ClosedControlSystem, x, u, h: float) -> np.ndarray:
    """One step of x' = Ax + Bu with u frozen on [0, h]:
    exp(Ah) x + A^{-1}(exp(Ah) - I) B u, evaluated spectrally."""
    v, decay, phi = _step_factors(sys, h)
    y = v.T @ np.asarray(x, dtype=float)
    forcing = v.T @ (sys.b_matrix @ np.asarray(u, dtype=float))
    return v @ (decay * y + phi * forcing)


def simulate(sys: ClosedControlSystem, x0, input_signal: InputSignal,
             t_end: float, h: float, norm_exponent: int = 1) -> Trajectory:
    """Repeated exact steps from 0 to t_end; norms use the L2-consistent
    weight by default regardless of the sweep weighting.

    Steps y <- exp(lambda h) y + phi (V^T B u) in modal coordinates y = V^T x,
    then maps the rows back to x = V y in blocks of BLOCK_ROWS.
    """
    steps = step_count(t_end, h)
    if input_signal.kind != "constant" and input_signal.values.shape[0] < steps:
        raise ValueError(
            f"input supplies {input_signal.values.shape[0]} samples for {steps} steps"
        )
    grid = sys.space.grid
    if callable(x0):
        state = restrict(x0, grid)
    else:
        state = np.asarray(x0, dtype=float)
        if state.shape != (grid.interior_nodes,):
            raise ValueError("initial state length does not match the grid")
    norm_space = WeightedSpace(grid, weight_exponent=norm_exponent,
                               input_norm=sys.space.input_norm)
    v, decay, phi = _step_factors(sys, h)
    g = v.T @ sys.b_matrix

    times = np.arange(steps + 1) * h
    states = np.empty((steps + 1, state.size))
    states[0] = state
    y = v.T @ state
    for i in range(steps):
        row = states[i + 1]
        np.multiply(decay, y, out=row)
        row += phi * (g @ input_signal.sample(i))
        y = row
    norms = np.empty(steps + 1)
    norms[0] = np.linalg.norm(state)
    for start in range(1, steps + 1, BLOCK_ROWS):
        rows = states[start:start + BLOCK_ROWS]
        rows[...] = rows @ v.T
        norms[start:start + BLOCK_ROWS] = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    norms *= norm_space.state_scale
    return Trajectory(times=times, states=states, norms=norms)


def iss_margin(traj: Trajectory, bundle: GainBundle, x0_norm: float,
               input_signal: InputSignal) -> tuple[float, float]:
    """Minimum over the trajectory of beta(x0, t) + gamma(||u||_inf) - ||x(t)||;
    positive means the ISS bound held at every sample."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    margins = bundle.beta(x0_norm, traj.times) + bundle.gamma(input_signal.sup_norm) - traj.norms
    idx = int(np.argmin(margins))
    return float(margins[idx]), float(traj.times[idx])


def trotter_kato_check(a: float, x0_modes, t: float, n_list) -> DiagnosticReport:
    """L2 distance between the lifted simulated state and the analytic
    solution, per resolution; passes when each doubling at least halves it."""
    if not t > 0.0:
        raise ValueError("need t > 0")
    n_list = list(n_list)
    if any(m >= n for m, n in zip(n_list, n_list[1:])):
        raise ValueError("resolution list must be increasing")
    exact = analytic_heat_state(x0_modes, a, t)
    values = {}
    gaps = []
    for n in n_list:
        grid = GridSpec(n)
        sys = build_heat_dirichlet(n, a, WeightedSpace(grid, weight_exponent=1))
        x0 = restrict(analytic_heat_state(x0_modes, a, 0.0), grid)
        traj = simulate(sys, x0, InputSignal.constant((0.0, 0.0), sys.space), t_end=t, h=t)
        lifted = extend(traj.states[-1], grid)
        panels = 4096 if 4096 % n == 0 else 4096 + n - 4096 % n
        gap = function_l2_norm(lambda xi: lifted(xi) - exact(xi), panels=panels)
        values[f"gap_{n}"] = gap
        gaps.append(gap)
    ratios = [g0 / g1 for g0, g1 in zip(gaps, gaps[1:])]
    for i, r in enumerate(ratios):
        values[f"ratio_{n_list[i]}_{n_list[i + 1]}"] = r
    verdict = "pass" if all(r >= 2.0 for r in ratios) else "fail"
    return DiagnosticReport(
        name="trotter_kato",
        values=values,
        verdict=verdict,
        detail=f"semigroup convergence at t = {t:g}; per-refinement gap ratios {ratios}",
    )
