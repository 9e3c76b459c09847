"""Exact-per-step simulation of the closed system under piecewise-constant
boundary inputs, and ISS margin evaluation.

The stepping is an exponential integrator evaluated spectrally, so it is
exact (up to eigensolver accuracy) for the piecewise-constant input class;
no time-discretization error enters the ISS verification.  An input is an
array of samples, one row per step (or one row held for every step);
``bang_bang`` draws the seeded random ones, one column per boundary end it
drives.  ``simulate`` works in modal coordinates y = V^T x: the
eigenvectors V are orthonormal, so ||x|| = ||y||, and both routes below
assume that every mode decays.

- A held row is evaluated in closed form at each sample time,
  y(t) = exp(lambda t) y0 + expm1(lambda t) (g u) / lambda, over the modes
  still moving at that time: O(moving modes) per block of samples, with no
  per-step loop, and a rounding error that does not grow with the step
  count.
- A full input takes the recurrence y <- exp(lambda h) y + phi (g u_i),
  one Python iteration per step, over the live modes only: the modes whose
  exp(lambda h) is 0 settle within one step and form a prefix of the modes
  (582 of 999 at n = 1000, h = 5e-4; 3961 of 3999 at n = 4000, h = 0.05).
  Their share of each norm comes from a k x k Gram matrix, for k input
  columns, so they are neither stepped nor stored.

Both work one block of samples at a time, in block arrays of at most
BLOCK_BYTES (64 KiB), and take each block's norms from its modal rows
before the next block overwrites them.  Only the final modal state is
kept, so the states take O(n) memory at any step count.  BLOCK_BYTES does
not bound the whole working set: beside the blocks stand arrays of the
modes' length and the buffers numpy's iterator allocates for a broadcast
product, up to ``np.getbufsize()`` doubles per broadcast operand.
``TestLiveModes::test_working_set`` checks that a full input's stepping,
besides its times and norms, stays below BLOCK_BYTES + 16 arrays of the
modes' length + two such buffers.  Both the state norms and the
input sup norm are those of the system's ``WeightedSpace``.

What grows with the step count is the input samples (8 B a step per
column of a full input, so 8 B for the simulate command's one-column
bang-bang input, none for a held row), the trajectory's times and norms
(8 B each) and the one margins array of ``iss_margin`` (8 B): 40 B a step
in all for a full two-column input, 32 B for a one-column one, 24 B for a
held row.  No other array of the step count's length is made: the input
sup norm is taken one block at a time, a full input's times are made after
its stepping buffer is freed, and the times and margins are computed in
place.
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

# Byte budget of simulate's block arrays: for a full input, one block of steps
# of the live modes (the forcing, then the states, then their norms), for two
# or more input columns a scratch block of the forcing's terms, and the k
# columns of G u_i for the settled modes' share of the norms;
# for a held row, lambda t and the closed form of one block of samples, and
# exp(lambda t) y0 beside them.  It also sizes the blocks of input rows over
# which the input sup norm is taken.  No result depends on it, and it does not
# bound numpy's iterator buffers (see the module docstring).  Stepping the
# bang-bang scenario at n = 1000, h = 5e-4 (417 live modes, 6000 steps) took
# (in-process, median of 9 runs, 2-vCPU x86-64 host) 21.4 ms at 32 KiB,
# 16.9 ms at 64 KiB, 14.7 ms at 128 KiB, 14.2 ms at 256 KiB and 13.5 ms at
# 1 MiB, against 20.6 ms when every mode's column was stored at 256 KiB; the
# two held scenarios took 5.2-5.8 ms together at any of these budgets.
# 64 KiB keeps most of that speed for a quarter of the resident memory of
# 256 KiB.
BLOCK_BYTES = 2**16

# exp(x) is exactly 0 below about -745.13 and expm1(x) exactly -1 below
# about -37.4, so a mode whose lambda t is below -SETTLED has reached its
# steady value under a held input to the last bit.
SETTLED = 746.0


def bang_bang(steps: int, seed: int, columns: int = 2) -> np.ndarray:
    """Input samples, ``steps`` >= 1 rows and ``columns`` >= 1 columns,
    drawn uniformly from {-1, 0, 1}; reproducible from the seed, which
    ``RunConfig.validate`` keeps in [0, 2**64).  An
    all-zero draw gets a 1 in its first entry.  The caller picks the
    boundary ends the columns drive: a one-column input drives the system
    whose B keeps only that end's column.

    The draws are the bytes of ``random.Random(seed)``, taken column by
    column, with 255 rejected so that b % 3 is uniform (255 = 3 * 85), and
    mapped to b % 3 - 1.  The standard library's generator spares the
    simulate command the load of numpy.random."""
    rng = random.Random(seed)
    values = np.empty((steps, columns))
    for column in values.T:
        filled = 0
        while filled < steps:
            draws = np.frombuffer(rng.randbytes(steps - filled), dtype=np.uint8)
            draws = draws[draws != 255] % 3
            column[filled:filled + draws.size] = draws
            filled += draws.size
        column -= 1.0
    if not np.any(values):
        values[0, 0] = 1.0
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


def step_exact(sys: ClosedControlSystem, x, u, h: float) -> np.ndarray:
    """One step of x' = Ax + Bu with u frozen on [0, h]:
    exp(Ah) x + A^{-1}(exp(Ah) - I) B u, ``simulate`` of the one sample u
    held over [0, h] (so A must be Hurwitz), mapped back from modal
    coordinates; ``simulate`` refuses a u that is not one sample.

    No library code calls it; it stays here because perfbench's n-ladder
    times it as ``simulate.step_exact``, and the tests drive it."""
    u = np.asarray(u, dtype=float)[np.newaxis]
    return sys.eig.eigenvectors @ simulate(sys, x, u, h, h).states[0]


def simulate(sys: ClosedControlSystem, x0, u, t_end: float, h: float) -> Trajectory:
    """Exact steps from 0 to t_end under the input samples ``u``, an array
    with one column per input component and either one row, held for every
    step, or at least one row per step (rows past the last step are
    ignored).  State and input norms are those of ``sys.space``.

    A generator that is not Hurwitz raises ValueError: ``_held`` settles a
    mode at -(g u) / lambda once t > SETTLED / -lambda, which for lambda >= 0
    would give a silently wrong trajectory.

    The state is kept in modal coordinates y = V^T x, and only its final
    row is returned as ``states``.  norms[0] is taken from x0 itself, the
    others from the modal rows, since ||V y|| = ||y||.  A held row (an input
    of one row) is evaluated in closed form at each sample time
    (``_held``): O(moving modes) per block of samples, no per-step loop, and
    each entry within a fixed number of ulps of the exact solution at any
    step count.  A full input takes the recurrence (``_stepped``): O(live
    modes) and one Python iteration per step, with a rounding error that
    grows with the step count; the settled modes enter each norm through a
    k x k Gram matrix.  Either way the forcing is formed elementwise, column
    by column, so no BLAS matrix product is made, and every result, for any
    real input, is the same bit for bit whatever block sizes BLOCK_BYTES
    sets.

    The input sup norm is the max of the sample norms of each block of
    BLOCK_BYTES of input rows, which equals the max over all rows bit for
    bit.  Besides the input, only ``times`` and ``norms`` (8 B a step each)
    grow with the step count; the module docstring bounds the temporaries.
    """
    steps = step_count(t_end, h)
    k = sys.b_matrix.shape[1]
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != k:
        raise ValueError(f"input samples must have shape (rows, {k}), got {u.shape}")
    if u.shape[0] != 1 and u.shape[0] < steps:
        raise ValueError(f"input supplies {u.shape[0]} samples for {steps} steps")
    held = u.shape[0] == 1
    u = u[:steps]
    space = sys.space
    # The input sup norm, BLOCK_BYTES of rows at a time, so that no |u| copy
    # or norm array of the step count's length is made.  A max is exact, so
    # this is the max over all rows bit for bit, a NaN included.
    norm_rows = max(1, BLOCK_BYTES // (8 * k))
    sup = np.max([np.max(space.input_sample_norm(u[i:i + norm_rows]))
                  for i in range(0, u.shape[0], norm_rows)])
    state = np.asarray(x0, dtype=float)
    if state.shape != (space.interior_nodes,):
        raise ValueError("initial state length does not match the grid")
    eig = sys.eigendecomposition()
    if not eig.eigenvalues[-1] < 0.0:
        raise ValueError(f"generator is not Hurwitz: largest eigenvalue {eig.eigenvalues[-1]}")
    g = eig.eigenvectors.T @ sys.b_matrix
    y = eig.eigenvectors.T @ state
    norms = np.empty(steps + 1)
    norms[0] = np.linalg.norm(state)
    if held:
        times = np.arange(steps + 1, dtype=float)
        times *= h
        y = _held(eig.eigenvalues, g, u[0], y, times, norms)
    else:
        # The factors exp(lambda h) and phi = expm1(lambda h) / lambda of one
        # step, in two arrays; exp(lambda h) - 1 would lose about
        # log10(1 / |lambda h|) digits of phi to cancellation.
        decay = eig.eigenvalues * h
        phi = np.expm1(decay)
        phi /= eig.eigenvalues
        np.exp(decay, out=decay)
        y = _stepped(decay, phi, g, u, y, norms)
        # Made once the stepping buffer is freed, so that the input, the
        # buffer, the norms and the times are never alive at once.
        times = np.arange(steps + 1, dtype=float)
        times *= h
    norms *= space.state_scale
    return Trajectory(times=times, states=y[np.newaxis], norms=norms,
                      input_sup_norm=float(sup))


def _forcing(g, samples, out) -> None:
    """out = samples @ g.T, formed elementwise: u_j * g_j for each input
    column j, summed in column order.  Each row depends on its own sample
    alone, so a row rounds the same in a block of any size.  Two or more
    columns take a scratch array of the shape of ``out``."""
    np.multiply(samples[:, :1], g[:, 0], out=out)
    if g.shape[1] > 1:
        scratch = np.empty_like(out)
    for j in range(1, g.shape[1]):
        np.multiply(samples[:, j:j + 1], g[:, j], out=scratch)
        out += scratch


def _stepped(decay, phi, g, u, y, norms) -> np.ndarray:
    """Steps y <- exp(lambda h) y + phi (g u_i) for the rows of ``u`` and
    writes the norms of the states into norms[1:].  Returns the final modal
    state.

    lambda ascends, so the modes whose exp(lambda h) underflows to 0, the
    settled ones, form a prefix.  Their decay term 0 * prev is +-0, so each
    of their entries is its forcing fl(fl(g u_i) phi) alone (adding the zero
    could change at most the sign of a zero entry, which no norm sees).  They
    are neither stepped nor stored: their share of norm_i^2 is u_i^T G u_i,
    with the k x k Gram matrix G = W^T W of W = phi g over the settled modes,
    summed as u_i . (G u_i) with G u_i formed by ``_forcing``, and their
    entries of the final state are formed once, from the last input row.
    Only the live modes are stepped, in blocks of rows held in a buffer of at
    most BLOCK_BYTES together with the k columns of G u_i for a block.  Every
    entry of every state is the one-step-at-a-time loop's bit for bit; only
    the summation order of a norm with settled modes differs from it."""
    steps, k = u.shape
    settled = int(np.searchsorted(decay, 0.0, side="right"))
    live = y.size - settled
    # W^T W by einsum, which makes no BLAS call.
    w = g[:settled] * phi[:settled, np.newaxis]
    gram = np.einsum("ij,ik->jk", w, w)
    g_live, phi_live, decay = g[settled:], phi[settled:], decay[settled:]
    # A row of a block: the forcing of the live modes, then their states,
    # with a scratch row beside it for two or more input columns, and the
    # k entries of G u_i.
    rows_max = max(1, min(steps, BLOCK_BYTES // (8 * ((1 if k == 1 else 2) * live + k))))
    block = np.empty((rows_max, live))
    gu = np.empty((rows_max, k))
    decayed = np.empty(live)
    y_live = y[settled:]
    for start in range(0, steps, rows_max):
        stop = min(start + rows_max, steps)
        rows = block[:stop - start]
        samples = u[start:stop]
        # The decay of the last state, taken before the forcing overwrites
        # the buffer row it may sit in.
        np.multiply(decay, y_live, out=decayed)
        # The forcing phi * (g u_i) of each step, written into the row it is
        # added to.
        _forcing(g_live, samples, rows)
        rows *= phi_live
        if live:
            rows[0] += decayed
            for prev, row in zip(rows, rows[1:]):
                np.multiply(decay, prev, out=decayed)
                row += decayed
        sq = norms[start + 1:stop + 1]
        np.einsum("ij,ij->i", rows, rows, out=sq)
        if settled:
            _forcing(gram, samples, gu[:stop - start])
            sq += np.einsum("ij,ij->i", gu[:stop - start], samples)
        np.sqrt(sq, out=sq)
        y_live = rows[-1]
    final = np.empty(y.size)
    _forcing(g[:settled], u[-1:], final[np.newaxis, :settled])
    final[:settled] *= phi[:settled]
    final[settled:] = y_live
    return final


def _held(lam, g, row, y0, times, norms) -> np.ndarray:
    """The exact solution under one input row held from t = 0, at each
    sample time t_i = times[i]:

        y(t_i) = exp(lambda t_i) y0 + expm1(lambda t_i) q,  q = (g u) / lambda,

    whose norms it writes into norms[1:].  Returns the final modal state.

    A mode is settled at t_i once t_i > SETTLED / -lambda: then
    lambda t_i < -745.2 however it rounds, exp gives exactly 0 and expm1
    exactly -1, and the entry is exactly -q.  lambda ascends, so the settled
    modes are a prefix of the modes, and their squares enter the norm
    through one prefix sum of q^2 in lambda order.  The samples are taken
    in runs over which the settled prefix is the same, at most BLOCK_BYTES
    of temporaries at a time (never less than one row of the moving modes),
    so each sample costs O(moving modes) and its arithmetic depends on
    nothing but its own time: no result depends on the block sizes.  Each
    entry is within a fixed number of ulps of |y0| + |g||u| / |lambda| of
    the exact value at any step count; tests/test_simulate.py derives the
    bound."""
    m = lam.size
    w = np.empty(m)
    _forcing(g, row[np.newaxis], w[np.newaxis])
    q = w / lam
    settled_sq = np.empty(m + 1)
    settled_sq[0] = 0.0
    np.cumsum(q * q, out=settled_sq[1:])
    # Mode k is settled at every sample time above settle_at[k]; ascending.
    settle_at = SETTLED / -lam
    steps = times.size - 1
    first = int(np.searchsorted(settle_at, times[1]))
    # Two arrays: lambda t, then the closed form, and exp(lambda t) y0.
    size = max(m - first, min(steps * (m - first), BLOCK_BYTES // 16))
    buf = np.empty((2, size))
    final = -q
    i = 1
    while i <= steps:
        s = int(np.searchsorted(settle_at, times[i]))
        moving = m - s
        if moving == 0:
            norms[i:] = np.sqrt(settled_sq[m])
            break
        # The run ends where mode s settles, or where the buffer is full.
        end = int(np.searchsorted(times, settle_at[s], side="right"))
        stop = min(end, steps + 1, i + size // moving)
        arg = buf[0, :(stop - i) * moving].reshape(stop - i, moving)
        np.multiply.outer(times[i:stop], lam[s:], out=arg)
        e = buf[1, :arg.size].reshape(arg.shape)
        np.exp(arg, out=e)
        e *= y0[s:]
        np.expm1(arg, out=arg)
        arg *= q[s:]
        arg += e
        sq = norms[i:stop]
        np.einsum("ij,ij->i", arg, arg, out=sq)
        sq += settled_sq[s]
        np.sqrt(sq, out=sq)
        if stop == steps + 1:
            final[s:] = arg[-1]
        i = stop
    return final


def iss_margin(traj: Trajectory, bundle: GainBundle, x0_norm: float) -> tuple[float, float]:
    """Minimum over the trajectory (``simulate`` makes at least two samples)
    of beta(x0, t) + gamma(||u||_inf) - ||x(t)||; positive means the ISS
    bound held at every sample.  The margins are computed in one array
    (8 B a step), in the order (beta + gamma) - norm."""
    margins = bundle.beta(x0_norm, traj.times)
    margins += bundle.gamma(traj.input_sup_norm)
    margins -= traj.norms
    idx = int(np.argmin(margins))
    return float(margins[idx]), float(traj.times[idx])
