"""Exact-per-step simulation of the closed system under piecewise-constant
boundary inputs, ISS margin evaluation and semigroup convergence checks.

The stepping is an exponential integrator evaluated spectrally, so it is
exact (up to eigensolver accuracy) for the piecewise-constant input class;
no time-discretization error enters the ISS verification.  An input is an
array of samples, one row per step (or one row held for every step);
``bang_bang`` draws the seeded random ones.  ``simulate`` steps in modal
coordinates y = V^T x, O(n) per step, and keeps the trajectory there: the
eigenvectors V are orthonormal, so ||x|| = ||y|| and the norms need no
back-transform.  Both the state norms and the input sup norm are those of
the system's ``WeightedSpace``.  Node values are formed only on request
(``Trajectory.node_states``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .fattorini import DiagnosticReport
from .gains import GainBundle
from .numerics import SineBasis
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
    "step_count",
    "step_exact",
    "simulate",
    "iss_margin",
    "trotter_kato_check",
]

MAX_STEPS = 10**7


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
    """Sample times, modal states and state norms of one simulation, and
    the sup norm of the input samples it applied.

    Row i of ``states`` is y(t_i) = V^T x(t_i) in the eigenvector basis
    ``basis`` = V, which is the system's memoized ``eigenvectors``, not a
    copy: for the uniform heat generator a ``SineBasis``, applied by FFT and
    never stored as a matrix."""

    times: np.ndarray
    states: np.ndarray  # modal coordinates, one row per time
    norms: np.ndarray
    basis: "np.ndarray | SineBasis"
    input_sup_norm: float

    def node_states(self) -> np.ndarray:
        """The trajectory in node values, x(t_i) = V y(t_i), one row per time."""
        return self.states @ self.basis.T


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


def simulate(sys: ClosedControlSystem, x0, u, t_end: float, h: float) -> Trajectory:
    """Repeated exact steps from 0 to t_end under the input samples ``u``,
    an array with one column per input component and either one row, held
    for every step, or at least one row per step (rows past the last step
    are ignored).  State and input norms are those of ``sys.space``.

    Steps y <- exp(lambda h) y + phi (V^T B u) in modal coordinates y = V^T x
    and returns those rows as ``states``.  norms[0] is taken from x0 itself,
    the others from the modal rows, since ||V y|| = ||y||.
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

    times = np.arange(steps + 1) * h
    states = np.empty((steps + 1, state.size))
    states[0] = v.T @ state
    # The forcing phi * (g u_i) of every step, written into the row it is
    # added to, so no steps x n temporary is formed.  A held row is copied
    # out to one row per step first, so that it takes the same BLAS route,
    # and rounds the same, as those rows given in full.
    np.matmul(np.ascontiguousarray(np.broadcast_to(u, (steps, k))), g.T, out=states[1:])
    states[1:] *= phi
    decayed = np.empty(state.size)
    for i in range(steps):
        np.multiply(decay, states[i], out=decayed)
        states[i + 1] += decayed
    norms = np.empty(steps + 1)
    norms[0] = np.linalg.norm(state)
    norms[1:] = np.sqrt(np.einsum("ij,ij->i", states[1:], states[1:]))
    norms *= space.state_scale
    return Trajectory(times=times, states=states, norms=norms, basis=v,
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
