"""Exact-per-step simulation of the closed system under piecewise-constant
boundary inputs, ISS margin evaluation and semigroup convergence checks.

The stepping is an exponential integrator evaluated spectrally, so it is
exact (up to eigensolver accuracy) for the piecewise-constant input class;
no time-discretization error enters the ISS verification.  An input is an
array of samples, one row per step (or one row held for every step);
``bang_bang`` draws the seeded random ones.  ``simulate`` steps in modal
coordinates y = V^T x, O(n) per step, one block of steps at a time in a
buffer of at most BLOCK_BYTES: the eigenvectors V are orthonormal, so
||x|| = ||y||, and each block's norms are taken from its modal rows before
the next block overwrites them.  Only the final modal state is kept, so
the states take O(n) memory at any step count.  Both the state norms and the
input sup norm are those of the system's ``WeightedSpace``.
"""

from dataclasses import dataclass

import numpy as np

from .config import step_count
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
    panels_for,
    restrict,
)

__all__ = [
    "bang_bang",
    "Trajectory",
    "step_exact",
    "simulate",
    "iss_margin",
    "trotter_kato_check",
]

# Byte budget of simulate's block buffer, which holds the modal rows of one
# block of steps: the forcing, then the states, then their norms.  Larger
# blocks leave cache and run slower.
BLOCK_BYTES = 2**20


def bang_bang(steps: int, seed: int, active: tuple = (0, 1)) -> np.ndarray:
    """Input samples, one row per step, drawn from {-1, 0, 1} on the active
    boundary components and zero elsewhere; reproducible from the 64-bit
    seed.  An all-zero draw gets a 1 in its first active entry."""
    rng = np.random.default_rng(np.uint64(seed))
    values = np.zeros((steps, 2))
    for j in active:
        values[:, j] = rng.integers(-1, 2, size=steps).astype(float)
    if not np.any(values):
        values[0, active[0]] = 1.0
    return values


@dataclass(frozen=True)
class Trajectory:
    """Sample times and state norms of one simulation, its final state,
    and the sup norm of the input samples it applied.

    ``states`` holds one row, the final modal state y(t_end) = V^T x(t_end)
    in the system's eigenvector basis V; earlier states are not kept.  It
    stays a 2-D array of shape (1, n - 1) because perfbench/traced_cli.py
    reads ``states.shape[1]`` as the number of unknowns."""

    times: np.ndarray
    states: np.ndarray  # the final modal state, shape (1, n - 1)
    norms: np.ndarray
    input_sup_norm: float


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


def simulate(sys: ClosedControlSystem, x0, u, t_end: float, h: float) -> Trajectory:
    """Repeated exact steps from 0 to t_end under the input samples ``u``,
    an array with one column per input component and either one row, held
    for every step, or at least one row per step (rows past the last step
    are ignored).  State and input norms are those of ``sys.space``.

    Steps y <- exp(lambda h) y + phi (V^T B u) in modal coordinates y = V^T x,
    in blocks of rows of at most BLOCK_BYTES, and keeps only the final row
    as ``states``.  norms[0] is taken from x0 itself, the others from the
    modal rows, since ||V y|| = ||y||.

    The forcing of a block is one matrix product over its rows, which BLAS
    rounds according to the row count.  For samples whose products u_j g_j
    are inexact (entries outside {-1, 0, 1}, say) the last bits of the
    states and norms therefore depend on the block row count, and so on n
    and the step count.  The CLI scenarios draw from {-1, 0, 1}, whose
    products are exact, so their results do not.
    """
    steps = step_count(t_end, h)
    k = sys.b_matrix.shape[1]
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != k:
        raise ValueError(f"input samples must have shape (rows, {k}), got {u.shape}")
    if u.shape[0] != 1 and u.shape[0] < steps:
        raise ValueError(f"input supplies {u.shape[0]} samples for {steps} steps")
    u = u[:steps]
    space = sys.space
    state = np.asarray(x0, dtype=float)
    if state.shape != (space.grid.interior_nodes,):
        raise ValueError("initial state length does not match the grid")
    v, decay, phi = _step_factors(sys, h)
    g = v.T @ sys.b_matrix

    y = v.T @ state
    # A held row is a zero-stride view here and is copied out one block at a
    # time below, so that it takes the same BLAS route, and rounds the same,
    # as rows given in full.
    samples = np.broadcast_to(u, (steps, k))
    norms = np.empty(steps + 1)
    norms[0] = np.linalg.norm(state)
    block = np.empty((max(1, min(steps, BLOCK_BYTES // y.nbytes)), y.size))
    decayed = np.empty(y.size)
    for start in range(0, steps, block.shape[0]):
        stop = min(start + block.shape[0], steps)
        rows = block[:stop - start]
        # The decay of the last state, taken before the forcing overwrites
        # the buffer row it may sit in.
        np.multiply(decay, y, out=decayed)
        # The forcing phi * (g u_i) of each step, written into the row it is
        # added to.
        np.matmul(np.ascontiguousarray(samples[start:stop]), g.T, out=rows)
        rows *= phi
        rows[0] += decayed
        for prev, row in zip(rows, rows[1:]):
            np.multiply(decay, prev, out=decayed)
            row += decayed
        norms[start + 1:stop + 1] = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        y = rows[-1]
    norms *= space.state_scale
    return Trajectory(times=np.arange(steps + 1) * h, states=y[np.newaxis].copy(), norms=norms,
                      input_sup_norm=float(np.max(space.input_sample_norm(u))))


def iss_margin(traj: Trajectory, bundle: GainBundle, x0_norm: float) -> tuple[float, float]:
    """Minimum over the trajectory of beta(x0, t) + gamma(||u||_inf) - ||x(t)||;
    positive means the ISS bound held at every sample."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    margins = bundle.beta(x0_norm, traj.times) + bundle.gamma(traj.input_sup_norm) - traj.norms
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
        lifted = extend(step_exact(sys, x0, (0.0, 0.0), t), grid)
        gap = function_l2_norm(lambda xi: lifted(xi) - exact(xi), panels=panels_for(n, 4096))
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
