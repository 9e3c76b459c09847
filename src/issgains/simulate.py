"""Exact-per-step simulation of the closed system under piecewise-constant
boundary inputs, and ISS margin evaluation.

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

What grows with the step count is the input samples (16 B a step for a full
two-column input, none for a held row), the trajectory's times and norms
(8 B each) and the one margins array of ``iss_margin`` (8 B): 40 B a step
in all for a full input, 24 B for a held row.  No other array of the step
count's length is made: the input sup norm is taken one block at a time,
and the times and margins are computed in place.
"""

import random
from typing import NamedTuple

import numpy as np

from .config import step_count
from .gains import GainBundle
from .systems import ClosedControlSystem

__all__ = [
    "bang_bang",
    "Trajectory",
    "step_exact",
    "simulate",
    "iss_margin",
]

# Byte budget of simulate's block buffer, which holds the modal rows of one
# block of steps: the forcing, then the states, then their norms.  It also
# sizes the blocks of input rows over which the input sup norm is taken.  Stepping
# the three CLI scenarios at n = 1000, h = 5e-4 took (in-process, median of
# 7 runs, 2-vCPU x86-64 host) 120 ms at 64 KiB, 103 ms at 128 KiB, 94 ms at
# 256 KiB, 87 ms at 512 KiB, 89 ms at 1 MiB and 92 ms at 2 MiB, with the same
# norms at every size; 256 KiB keeps most of that speed for a quarter of
# the 1 MiB buffer's resident memory.
BLOCK_BYTES = 2**18


def bang_bang(steps: int, seed: int, active: tuple = (0, 1)) -> np.ndarray:
    """Input samples, one row per step, drawn uniformly from {-1, 0, 1} on
    the active boundary components and zero elsewhere; reproducible from
    the 64-bit seed.  An all-zero draw gets a 1 in its first active entry.

    The draws are the bytes of ``random.Random(seed)``, taken column by
    column, with 255 rejected so that b % 3 is uniform (255 = 3 * 85), and
    mapped to b % 3 - 1.  The standard library's generator spares the
    simulate command the load of numpy.random."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    rng = random.Random(seed)
    values = np.zeros((steps, 2))
    for j in active:
        column = values[:, j]
        filled = 0
        while filled < steps:
            draws = np.frombuffer(rng.randbytes(steps - filled), dtype=np.uint8)
            draws = draws[draws != 255] % 3
            column[filled:filled + draws.size] = draws
            filled += draws.size
        column -= 1.0
    if not np.any(values):
        values[0, active[0]] = 1.0
    return values


class Trajectory(NamedTuple):
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
    modal rows, since ||V y|| = ||y||.  The input sup norm is the max of
    the sample norms of each block of BLOCK_BYTES of input rows, which
    equals the max over all rows bit for bit.  Besides the input, only
    ``times`` and ``norms`` (8 B a step each) grow with the step count; the
    buffers are bounded by BLOCK_BYTES.

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
    # The input sup norm, BLOCK_BYTES of rows at a time, so that no |u| copy
    # or norm array of the step count's length is made.  A max is exact, so
    # this is the max over all rows bit for bit, a NaN included.
    norm_rows = max(1, BLOCK_BYTES // (8 * k))
    sup = np.max([np.max(space.input_sample_norm(u[i:i + norm_rows]))
                  for i in range(0, u.shape[0], norm_rows)])
    state = np.asarray(x0, dtype=float)
    if state.shape != (space.grid.interior_nodes,):
        raise ValueError("initial state length does not match the grid")
    v, decay, phi = _step_factors(sys, h)
    g = v.T @ sys.b_matrix
    # lambda ascends, so the modes whose exp(lambda h) underflows to 0 come
    # first.  Their decay term 0 * prev is +-0, so each of their entries is
    # its forcing alone and only the live modes are stepped.  Adding the
    # zero could change at most the sign of a zero entry, which no norm sees.
    live = int(np.searchsorted(decay, 0.0, side="right"))
    decay = decay[live:]

    y = v.T @ state
    # A held row is a zero-stride view here and is copied out one block at a
    # time below, so that it takes the same BLAS route, and rounds the same,
    # as rows given in full.
    samples = np.broadcast_to(u, (steps, k))
    norms = np.empty(steps + 1)
    norms[0] = np.linalg.norm(state)
    block = np.empty((max(1, min(steps, BLOCK_BYTES // y.nbytes)), y.size))
    decayed = np.empty(decay.size)
    for start in range(0, steps, block.shape[0]):
        stop = min(start + block.shape[0], steps)
        rows = block[:stop - start]
        # The decay of the last state, taken before the forcing overwrites
        # the buffer row it may sit in.
        np.multiply(decay, y[live:], out=decayed)
        # The forcing phi * (g u_i) of each step, written into the row it is
        # added to.
        np.matmul(np.ascontiguousarray(samples[start:stop]), g.T, out=rows)
        rows *= phi
        live_rows = rows[:, live:]
        live_rows[0] += decayed
        for prev, row in zip(live_rows, live_rows[1:]):
            np.multiply(decay, prev, out=decayed)
            row += decayed
        norms[start + 1:stop + 1] = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        y = rows[-1]
    norms *= space.state_scale
    times = np.arange(steps + 1, dtype=float)
    times *= h
    return Trajectory(times=times, states=y[np.newaxis].copy(), norms=norms,
                      input_sup_norm=float(sup))


def iss_margin(traj: Trajectory, bundle: GainBundle, x0_norm: float) -> tuple[float, float]:
    """Minimum over the trajectory of beta(x0, t) + gamma(||u||_inf) - ||x(t)||;
    positive means the ISS bound held at every sample.  The margins are
    computed in one array (8 B a step), in the order (beta + gamma) - norm."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    margins = bundle.beta(x0_norm, traj.times)
    margins += bundle.gamma(traj.input_sup_norm)
    margins -= traj.norms
    idx = int(np.argmin(margins))
    return float(margins[idx]), float(traj.times[idx])
