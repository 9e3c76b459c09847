import contextlib
import decimal
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import issgains.simulate
from issgains.config import MAX_STEPS, ConfigError, RunConfig, step_count
from issgains.gains import THETA, GainBundle
from issgains.numerics import sym_tridiag_eig
from issgains.simulate import (
    bang_bang,
    iss_margin,
    simulate,
    step_exact,
)
from issgains.systems import (
    ClosedControlSystem,
    WeightedSpace,
    build_heat_dirichlet,
)
from oracles import (DECIMAL_DIGITS, exact_norm, held_exact, prefix_states, simulate_stepwise,
                     trotter_kato_gaps, with_dense_eig)

REFERENCE_BUNDLE = GainBundle(
    alpha=0.5, theta=THETA, k1=3.1408, k2=0.5626, kappa=0.6359,
    frac_norm_limit=1.4136, beta_m=1.0, beta_omega=9.8647,
    gamma_slope=0.8989,
)


ZERO = np.zeros((1, 2))
ONE_SIDED = np.array([[1.0, 0.0]])
TWO_SIDED = np.array([[1.0, 1.0]])


def l2_system(n, a=1.0, u_norm="max"):
    return build_heat_dirichlet(n, a, weight_exponent=1, input_norm=u_norm)


def one_sided(sys, column=0):
    """``sys`` driven at one end only: B keeps that one column, as the
    one-column bang_bang input of that end needs."""
    return sys._replace(b_matrix=sys.b_matrix[:, [column]])


@contextlib.contextmanager
def block_bytes(value):
    """simulate's BLOCK_BYTES set to ``value`` inside the block."""
    old = issgains.simulate.BLOCK_BYTES
    issgains.simulate.BLOCK_BYTES = value
    try:
        yield
    finally:
        issgains.simulate.BLOCK_BYTES = old


# Rounding bounds of a held-input trajectory against the exact one, per
# modal entry.  U = 2^-53 is the unit roundoff; numpy's exp and expm1 are
# allowed LIB_ULPS ulps (2U relative each), and were within 0.7 ulp at
# 12 000 points in [-745, 0].  Every bound is first order in U.
U = 2.0**-53
LIB_ULPS = 4


def held_magnitudes(sys, x0, row):
    """Per mode Y = |y0| and Q = sum_j |g_j u_j| / |lambda| for the held
    row ``row`` from x0, the sizes that the entries' errors scale with."""
    eig = sys.eigendecomposition()
    v = eig.eigenvectors
    g = np.abs(v.T @ sys.b_matrix)
    q = sum(g[:, j] * abs(uj) for j, uj in enumerate(row)) / np.abs(eig.eigenvalues)
    return np.abs(v.T @ np.asarray(x0, dtype=float)), q


def closed_form_bound(sys, x0, row, h):
    """The map from a sample i to the per-mode bound on the closed form's
    error there, fl(fl(expm1(x) q) + fl(exp(x) y0)) at x = fl(lambda fl(i h)),
    q = fl(fl(g . u) / lambda), against y* = exp(x*) y0 + expm1(x*) P at
    x* = lambda i h, P = (g . u) / lambda, for k input columns:
    - |q - P| <= (k + 1) U Q: k products and k - 1 sums, then the division;
    - |x - x*| <= 2U |x*|, which moves expm1 by at most
      2U |x*| exp(x*) <= 2U E, E = 1 - exp(x*), and exp by at most
      min(2U |x*| exp(x*), 0.74U), since |x| exp(x) <= 1/e;
    - with the library's 2 LIB_ULPS U, expm1(x) q is then within
      (2 LIB_ULPS + k + 4) U E Q, product included, and exp(x) y0 within
      ((2 LIB_ULPS + 1) exp(x*) + min(2 |x*| exp(x*), 0.74)) U Y;
    - the sum adds U (E Q + exp(x*) Y).
    A settled entry is -q, within (k + 1) U Q plus exp(x*) (Q + Y) <
    2^-1074 (Q + Y), which a double error does not resolve."""
    lam = sys.eigendecomposition().eigenvalues
    y, q = held_magnitudes(sys, x0, row)
    k = len(row)

    def bound(i):
        x = lam * (i * h)
        e = np.exp(x)
        return U * ((2 * LIB_ULPS + k + 5) * -np.expm1(x) * q
                    + ((2 * LIB_ULPS + 2) * e + np.minimum(2 * np.abs(x) * e, 0.74)) * y)
    return bound


def recurrence_bound(sys, x0, row, h):
    """The map from a sample i to the per-mode bound on the error of i
    steps of the recurrence y <- fl(fl(d y) + f) under the held row, with
    x = fl(lambda h), d = fl(exp(x)) within (2 LIB_ULPS + |lambda h|) U D of
    D = exp(lambda h), phi = fl(fl(expm1(x)) / lambda) within
    (2 LIB_ULPS + 2) U of Phi = (1 - D) / |lambda| relative (rounding x moves
    expm1 by at most U |lambda h| D <= U (1 - D)), and f = fl(fl(g . u) phi)
    within (2 LIB_ULPS + k + 3) U (1 - D) Q of F: each step adds at most
    (d - D) y, f - F and two roundings, in all (4 LIB_ULPS + k + 6) U (Q + Y)
    (|lambda h| D <= 1/e, |y| <= Q + Y), and the error carried from the step
    before decays by D <= 1."""
    y, q = held_magnitudes(sys, x0, row)
    k = len(row)
    return lambda i: i * (4 * LIB_ULPS + k + 6) * U * (q + y)


def assert_near_exact(sys, exact, states, norms, bound):
    """For each sample i >= 1, every entry of the modal state states[i]
    within bound(i) of the exact row exact[i] (rows of Decimals), and
    norms[i] within what follows for the weighted norm: the entries' error
    in the 2-norm, plus (m + 6) / 2 U of relative rounding for the m
    squares, their sum in any order, the square root and the scaling."""
    m = states.shape[1]
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        for i in range(1, len(exact)):
            err = np.array([float(decimal.Decimal(y) - e)
                            for y, e in zip(states[i].tolist(), exact[i])])
            b = bound(i)
            assert np.all(np.abs(err) <= b), (i, np.max(np.abs(err) - b))
            state_part = sys.space.state_scale * float(np.linalg.norm(b))
            target = exact_norm(sys, exact[i])
            norm_err = abs(float(decimal.Decimal(norms[i]) - target))
            assert norm_err <= state_part + (m + 6) / 2 * U * (float(target) + state_part), i


def node_values(sys, modal):
    """Modal rows y_i as node values x_i = V y_i, one row each."""
    return (sys.eigendecomposition().eigenvectors @ modal.T).T


def stepwise_norms(sys, x0, modal):
    """The norms simulate reports for the modal rows of a run from x0."""
    norms = np.empty(len(modal))
    norms[0] = np.linalg.norm(x0)
    norms[1:] = np.sqrt(np.einsum("ij,ij->i", modal[1:], modal[1:]))
    return norms * sys.space.state_scale


def settled_count(sys, h):
    """The number of modes whose exp(lambda h) is exactly 0."""
    return int(np.count_nonzero(np.exp(sys.eigendecomposition().eigenvalues * h) == 0.0))


def assert_norms_near_stepwise(sys, x0, u, h, oracle, norms):
    """norms (simulate's, from the stepwise oracle's very entries) within
    the rounding of two summation orders of stepwise_norms(sys, x0, oracle).

    For the s settled modes, simulate forms u_i^T G u_i with G = W^T W,
    W = fl(phi g), instead of summing the squares of their entries
    e = fl(fl(sum_j fl(u_j g_j)) phi).  With a_m = sum_j |phi_m g_mj u_ij|
    and S = sum over settled m of a_m^2, to first order in U:
    - |e_m - t_m| <= (k + 1) U a_m for t_m = sum_j phi_m g_mj u_j, so the
      squares' sum is within 2 (k + 1) U S of sum t_m^2;
    - each G_jl is within (s + 2) U sum_m |w_mj w_ml| of the exact one, and
      forming each (G u)_l as the column-order sum of fl(u_j G_lj), then
      u . (G u), adds at most 2k U <= (k^2 + 1) U relative to each term
      u_l G_lj u_j, so u^T G u is within (s + k^2 + 3) U S of sum t_m^2.
    S bounds the share and not the norm: for k >= 2, u^T G u can cancel.
    The l live squares sum within l U L of their exact sum L, the oracle's
    m squares within m U (L + S), and simulate's last add costs U (L + S):
    the squared norms differ by at most D = (2m + k^2 + 2k + 7) U (L + S),
    one U of it for second-order terms.  Then, with c the state scale,
    |N - N_o| <= c^2 D / ((N + N_o)(1 - 4U)) + 2U (N + N_o), the last term
    for each side's square root and scaling."""
    eig = sys.eigendecomposition()
    lam = eig.eigenvalues
    s = settled_count(sys, h)
    m, k = lam.size, sys.b_matrix.shape[1]
    steps = len(norms) - 1
    u = np.asarray(u, dtype=float)[:steps]
    phi = np.expm1(lam * h) / lam
    w = np.abs((eig.eigenvectors.T @ sys.b_matrix)[:s] * phi[:s, np.newaxis])
    a = np.abs(u) @ w.T
    settled = np.einsum("ij,ij->i", a, a)
    live = np.einsum("ij,ij->i", oracle[1:, s:], oracle[1:, s:])
    d = (2 * m + k * k + 2 * k + 7) * U * (live + settled)
    expected = stepwise_norms(sys, x0, oracle)
    assert norms[0] == expected[0]
    both = norms[1:] + expected[1:]
    c = sys.space.state_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(both > 0, c * c * d / (both * (1 - 4 * U)), 0.0) + 2 * U * both
    err = np.abs(norms[1:] - expected[1:])
    assert np.all(err <= bound), np.max(err - bound)


def input_sup_norm(u, u_norm):
    """input_sup_norm of a run that applies each row of u for one step, on
    the system that u's columns drive."""
    u = np.asarray(u, dtype=float)
    sys = l2_system(4, u_norm=u_norm)
    sys = sys._replace(b_matrix=sys.b_matrix[:, :u.shape[1]])
    return simulate(sys, np.zeros(3), u, 0.1 * len(u), 0.1).input_sup_norm


class TestStepExact:
    def test_scalar_decay(self):
        sys = l2_system(2)
        out = step_exact(sys, [1.0], (0.0, 0.0), 0.1)
        assert out[0] == pytest.approx(math.exp(-0.8), rel=1e-12)

    def test_steady_state_large_step(self):
        sys = l2_system(2)
        out = step_exact(sys, [0.0], (1.0, 1.0), 100.0)
        assert out[0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_fixed_point(self):
        sys = l2_system(8)
        out = step_exact(sys, np.zeros(7), (0.0, 0.0), 0.3)
        np.testing.assert_array_equal(out, 0.0)

    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            step_exact(l2_system(4), np.zeros(3), (0.0, 0.0), 0.0)

    @pytest.mark.parametrize("u", [(1.0,), (1.0, 0.0, 5.0), ((1.0, 0.0),)])
    def test_input_shape_rejected(self, u):
        with pytest.raises(ValueError, match=r"^input samples must have shape \(rows, 2\)"):
            step_exact(l2_system(4), np.ones(3), u, 0.1)

    def test_is_simulate_held_for_one_step(self):
        # The one exact step is the closed form of a held row at t = h.
        sys = l2_system(64)
        x = np.random.default_rng(4).standard_normal(63)
        u = np.array([1.0, -0.5])
        v = sys.eigendecomposition().eigenvectors
        for h in (1e-5, 0.01, 0.3):
            np.testing.assert_array_equal(step_exact(sys, x, u, h),
                                          v @ simulate(sys, x, u[None], h, h).states[0])


def growing_system():
    """A symmetric generator with every eigenvalue positive, 1 + cos(k pi/8)/2
    for k = 1..7 (from 0.538 to 1.462), driven at both ends."""
    d, e = np.ones(7), np.full(6, 0.25)
    b = np.zeros((7, 2))
    b[0, 0] = b[6, 1] = 1.0
    return ClosedControlSystem(WeightedSpace(8, 1), d, e, b, sym_tridiag_eig(d, e))


class TestHurwitzGate:
    """simulate and step_exact refuse a generator with a mode that does not
    decay, rather than return a trajectory whose closed form assumed it."""

    @pytest.mark.parametrize("u", [np.array([[1.0, 0.0]]), np.tile([1.0, 0.0], (4, 1))],
                             ids=["held", "full"])
    def test_growing_modes(self, u):
        with pytest.raises(ValueError, match="not Hurwitz"):
            simulate(growing_system(), np.ones(7), u, 1.0, 0.25)

    def test_step_exact(self):
        with pytest.raises(ValueError, match="not Hurwitz"):
            step_exact(growing_system(), np.ones(7), (1.0, 0.0), 0.25)

    def test_zero_generator(self):
        zeros = np.zeros(2)
        sys = ClosedControlSystem(WeightedSpace(3), zeros, np.zeros(1), np.eye(2),
                                  sym_tridiag_eig(zeros, [0.0]))
        with pytest.raises(ValueError, match="not Hurwitz"):
            simulate(sys, np.ones(2), ONE_SIDED, 1.0, 0.5)


class TestSimulate:
    def test_eigenvector_decay_exact(self):
        n = 100
        sys = l2_system(n)
        for k in (1, 3):
            x0 = np.sin(k * np.pi * sys.space.nodes())
            traj = simulate(sys, x0, ZERO, 0.5, 0.01)
            nodes = node_values(sys, prefix_states(sys, x0, ZERO, 0.01, 50))
            lam = -4.0 * n**2 * math.sin(k * math.pi / (2 * n)) ** 2
            scale = np.linalg.norm(x0)
            for t, state in zip(traj.times, nodes, strict=True):
                exact = math.exp(lam * t) * x0
                assert np.linalg.norm(state - exact) <= 1e-10 * scale

    def test_norm_decay_rate(self):
        n = 1000
        sys = l2_system(n)
        x0 = np.sin(np.pi * sys.space.nodes())
        traj = simulate(sys, x0, ZERO, 0.2, 0.01)
        omega_n = 4.0 * n**2 * math.sin(math.pi / (2 * n)) ** 2
        for t, norm in zip(traj.times, traj.norms):
            assert norm == pytest.approx(math.exp(-omega_n * t) * traj.norms[0], rel=1e-9)

    def test_one_sided_steady_state(self):
        n = 200
        sys = l2_system(n)
        traj = simulate(sys, np.zeros(n - 1), ONE_SIDED, 3.0, 0.1)
        k = np.arange(1, n)
        np.testing.assert_allclose(node_values(sys, traj.states)[0], 1.0 - k / n, atol=1e-10)
        assert traj.norms[-1] == pytest.approx(1.0 / math.sqrt(3.0), abs=3e-3)

    def test_superposition(self):
        n = 100
        sys = l2_system(n)
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal(n - 1)
        u = bang_bang(50, seed=99)
        both = prefix_states(sys, x0, u, 0.05, 50)
        free = prefix_states(sys, x0, ZERO, 0.05, 50)
        forced = prefix_states(sys, np.zeros(n - 1), u, 0.05, 50)
        scale = max(1.0, np.max(np.abs(both)))
        assert np.max(np.abs(both - free - forced)) <= 1e-10 * scale

    def test_zero_everything(self):
        sys = l2_system(16)
        traj = simulate(sys, np.zeros(15), ZERO, 1.0, 0.1)
        assert np.all(prefix_states(sys, np.zeros(15), ZERO, 0.1, 10) == 0.0)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.norms == 0.0)

    def test_norms_recomputable(self):
        sys = l2_system(32)
        u = bang_bang(20, seed=5)
        traj = simulate(sys, np.zeros(31), u, 1.0, 0.05)
        dx = sys.space.dx
        for state, norm in zip(prefix_states(sys, np.zeros(31), u, 0.05, 20), traj.norms,
                               strict=True):
            assert norm == pytest.approx(math.sqrt(dx) * np.linalg.norm(state), abs=1e-12)

    def test_step_budget(self):
        sys = l2_system(4)
        with pytest.raises(ValueError, match="budget"):
            simulate(sys, np.zeros(3), ZERO, 1e5, 1e-3)

    def test_insufficient_samples(self):
        sys = l2_system(4)
        with pytest.raises(ValueError, match="samples"):
            simulate(sys, np.zeros(3), np.zeros((3, 2)), 1.0, 0.1)

    def test_empty_input_rejected(self):
        sys = l2_system(4)
        for steps in (1, 10):
            with pytest.raises(ValueError, match="input supplies 0 samples"):
                simulate(sys, np.zeros(3), np.zeros((0, 2)), 0.1 * steps, 0.1)

    @pytest.mark.parametrize("shape", [(2,), (10,), (10, 1), (10, 3), (1, 3), (10, 2, 1)])
    def test_input_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            simulate(l2_system(4), np.zeros(3), np.zeros(shape), 1.0, 0.1)

    def test_norms_follow_system_space(self):
        # A weight-2 system measures states by dx * ||x||, not by the
        # Riemann weight sqrt(dx) * ||x||.
        n = 32
        sys = build_heat_dirichlet(n, 1.0, weight_exponent=2)
        x0 = np.sin(np.pi * sys.space.nodes())
        u = bang_bang(20, seed=5)
        traj = simulate(sys, x0, u, 1.0, 0.05)
        nodes = node_values(sys, prefix_states(sys, x0, u, 0.05, 20))
        dx = sys.space.dx
        for state, norm in zip(nodes, traj.norms, strict=True):
            assert norm == pytest.approx(dx * np.linalg.norm(state), rel=1e-12, abs=1e-15)

    def test_held_row_and_repeated_rows_near_exact(self):
        """One row held, which takes the closed form, and the same row
        given for every step, which takes the recurrence: each within its
        own bound of the exact trajectory at every sample, the closed
        form's the same at every step, the recurrence's growing with the
        step count.  Both apply the same input sup norm."""
        n, steps, h = 200, 40, 0.01
        sys = l2_system(n)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(n - 1)
        row = rng.uniform(-1.0, 1.0, (1, 2))
        rows = np.repeat(row, steps, axis=0)
        held = simulate(sys, x0, row, steps * h, h)
        repeated = simulate(sys, x0, rows, steps * h, h)
        exact = held_exact(sys, x0, row[0], h, range(steps + 1))
        assert_near_exact(sys, exact, prefix_states(sys, x0, row, h, steps), held.norms,
                          closed_form_bound(sys, x0, row[0], h))
        assert_near_exact(sys, exact, prefix_states(sys, x0, rows, h, steps), repeated.norms,
                          recurrence_bound(sys, x0, row[0], h))
        assert held.input_sup_norm == repeated.input_sup_norm

    @pytest.mark.parametrize("x0_seed, row", [(None, [0.3, -0.7]), (5, [0.3, -0.7]),
                                              (5, [0.0, 0.0])],
                             ids=["zero-x0", "random-x0", "free-decay"])
    def test_closed_form_error_does_not_grow_with_steps(self, x0_seed, row):
        """10^5 steps at n = 4, h = 1e-5: the closed form stays within its
        bound of the exact state at late samples, which does not grow with
        the step count.  The recurrence, whose exp(lambda h)^i gathers the
        rounding of exp(lambda h) over the steps, is further off there, though
        its phi = expm1(lambda h) / lambda loses no digits to cancellation."""
        n, steps, h = 4, 100_000, 1e-5
        sys = l2_system(n)
        x0 = (np.zeros(n - 1) if x0_seed is None
              else np.random.default_rng(x0_seed).standard_normal(n - 1))
        row = np.array(row)
        late = [0, 1, 997, steps // 2, steps]
        exact = held_exact(sys, x0, row, h, late)
        bound = closed_form_bound(sys, x0, row, h)
        y, q = held_magnitudes(sys, x0, row)
        closed = [simulate(sys, x0, row[np.newaxis], i * h, h).states[0] for i in late[1:]]
        stepped = simulate(sys, x0, np.tile(row, (steps, 1)), steps * h, h).states[0]
        with decimal.localcontext() as ctx:
            ctx.prec = DECIMAL_DIGITS
            for i, state, target in zip(late[1:], closed, exact[1:]):
                err = np.array([float(decimal.Decimal(v) - e) for v, e in zip(state.tolist(), target)])
                assert np.all(np.abs(err) <= bound(i)), i
            closed_err = np.abs(err) / (q + y)
            stepped_err = np.abs([float(decimal.Decimal(v) - e)
                                  for v, e in zip(stepped.tolist(), exact[-1])]) / (q + y)
        assert np.max(stepped_err) > np.max(closed_err)

    def test_rows_past_last_step_ignored(self):
        sys = l2_system(8)
        u = np.zeros((15, 2))
        u[:10, 0] = 0.5
        u[10:] = 7.0
        traj = simulate(sys, np.zeros(7), u, 1.0, 0.1)
        exact = simulate(sys, np.zeros(7), u[:10], 1.0, 0.1)
        assert traj.input_sup_norm == 0.5
        np.testing.assert_array_equal(traj.states, exact.states)
        np.testing.assert_array_equal(traj.norms, exact.norms)
        np.testing.assert_array_equal(prefix_states(sys, np.zeros(7), u, 0.1, 10),
                                      prefix_states(sys, np.zeros(7), u[:10], 0.1, 10))

    @pytest.mark.parametrize("u", [ONE_SIDED, TWO_SIDED, bang_bang(60, 20240501, columns=1)],
                             ids=["onesided", "twosided", "bangbang"])
    def test_matches_stepwise_oracle(self, u):
        """The three scenarios of the simulate command.  The held rows take
        the closed form: within its bound of the exact trajectory at every
        sample.  The bang-bang input, which drives the left end alone, takes
        the recurrence: every state entry bit for bit against the
        one-step-at-a-time loop, and the norms, which take the settled
        modes from their Gram matrix, within two summation orders of its."""
        n, h = 64, 0.05
        sys = l2_system(n)
        x0 = np.zeros(n - 1)
        if len(u) == 1:
            traj = simulate(sys, x0, u, 3.0, h)
            assert_near_exact(sys, held_exact(sys, x0, u[0], h, range(61)),
                              prefix_states(sys, x0, u, h, 60), traj.norms,
                              closed_form_bound(sys, x0, u[0], h))
            return
        sys = one_sided(sys)
        assert settled_count(sys, h) > 0
        traj = simulate(sys, x0, u, 3.0, h)
        oracle = simulate_stepwise(sys, x0, u, h, 60)
        np.testing.assert_array_equal(prefix_states(sys, x0, u, h, 60), oracle)
        np.testing.assert_array_equal(traj.states, oracle[-1:])
        assert_norms_near_stepwise(sys, x0, u, h, oracle, traj.norms)

    def test_partial_step_rejected(self):
        sys = l2_system(4)
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(sys, np.zeros(3), ONE_SIDED, 0.1, 0.07)


class TestBlocks:
    """simulate with its block buffer shrunk to a few rows.  A full input,
    under which no mode settles at this n and h, is checked bit for bit
    against the one-step-at-a-time loop; a held row bit
    for bit against the same run at the default budget, and within the
    closed form's bound of the exact trajectory."""

    @pytest.mark.parametrize("block_rows, steps", [(3, 10), (1, 7), (0, 6), (16, 5), (4, 1)],
                             ids=["ragged", "one-row", "budget-below-one-row", "steps-below-block",
                                  "one-step"])
    @pytest.mark.parametrize("held", [True, False], ids=["held", "full"])
    def test_matches_stepwise_oracle(self, monkeypatch, block_rows, steps, held):
        n, h = 32, 0.05
        sys = l2_system(n)
        rng = np.random.default_rng(steps)
        x0 = rng.standard_normal(n - 1)
        # A full input of one step gets a second row, which simulate
        # ignores, so that it is not a held row.
        u = np.array([[1.0, -1.0]]) if held else bang_bang(max(steps, 2), seed=steps)
        default = simulate(sys, x0, u, steps * h, h)
        # Two input columns: the forcing block and its scratch block.
        monkeypatch.setattr(issgains.simulate, "BLOCK_BYTES", 2 * 8 * (n - 1) * block_rows)
        traj = simulate(sys, x0, u, steps * h, h)
        if held:
            np.testing.assert_array_equal(traj.states, default.states)
            np.testing.assert_array_equal(traj.norms, default.norms)
            assert_near_exact(sys, held_exact(sys, x0, u[0], h, range(steps + 1)),
                              prefix_states(sys, x0, u, h, steps), traj.norms,
                              closed_form_bound(sys, x0, u[0], h))
            return
        oracle = simulate_stepwise(sys, x0, u, h, steps)
        np.testing.assert_array_equal(traj.states, oracle[-1:])
        np.testing.assert_array_equal(traj.norms, stepwise_norms(sys, x0, oracle))

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(2, 40), steps=st.integers(1, 25), held=st.booleans(),
           h=st.sampled_from([1e-4, 0.01, 0.05, 0.3]), seed=st.integers(0, 2**32 - 1),
           ragged_rows=st.integers(2, 5))
    def test_block_size_independent(self, n, steps, held, h, seed, ragged_rows):
        """For real-valued inputs, held or full, and a random x0, the norms
        and final state are the same bit for bit at a budget below one row,
        at ragged blocks of a few rows and at the default budget."""
        sys = l2_system(n)
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(n - 1)
        u = rng.uniform(-3.0, 3.0, (1 if held else steps + 1, 2))
        runs = []
        for budget in (1, 2 * 8 * (n - 1) * ragged_rows, issgains.simulate.BLOCK_BYTES):
            with block_bytes(budget):
                runs.append(simulate(sys, x0, u, steps * h, h))
        for traj in runs[1:]:
            np.testing.assert_array_equal(traj.states, runs[0].states)
            np.testing.assert_array_equal(traj.norms, runs[0].norms)

    def test_buffer_holds_at_most_steps_rows(self, monkeypatch):
        # A 1 GiB budget would allocate 1 GiB if the buffer were not capped
        # at the step count.
        n, steps = 1000, 5
        sys = l2_system(n)
        monkeypatch.setattr(issgains.simulate, "BLOCK_BYTES", 2**30)
        tracemalloc.start()
        try:
            simulate(sys, np.zeros(n - 1), ONE_SIDED, steps * 0.01, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStepLengthArrays:
    """What grows with the step count in simulate and iss_margin: the
    outputs (times and norms), one margins array and nothing else.  The
    input sup norm is taken one block at a time; the margins and times are
    computed in place."""

    @pytest.mark.parametrize("u_norm", ["max", "euclidean"])
    @pytest.mark.parametrize("held", [True, False], ids=["held", "full"])
    def test_input_sup_norm_by_block(self, monkeypatch, u_norm, held):
        # Blocks of 3 two-column input rows over 10 steps: 3, 3, 3 and a
        # ragged 1.
        n, h, steps = 8, 0.05, 10
        sys = l2_system(n, u_norm=u_norm)
        monkeypatch.setattr(issgains.simulate, "BLOCK_BYTES", 16 * 3)
        rng = np.random.default_rng(steps)
        # Full inputs get two more rows than steps, larger than any applied.
        u = rng.uniform(-2.0, 2.0, (1 if held else steps + 2, 2))
        if not held:
            u[steps:] = 5.0
        traj = simulate(sys, np.zeros(n - 1), u, steps * h, h)
        assert traj.input_sup_norm == float(np.max(sys.space.input_sample_norm(u[:steps])))

    @pytest.mark.parametrize("row", [1, 4, 9])
    def test_input_sup_norm_keeps_a_nan(self, monkeypatch, row):
        n, h, steps = 8, 0.05, 10
        sys = l2_system(n)
        monkeypatch.setattr(issgains.simulate, "BLOCK_BYTES", 16 * 3)
        u = bang_bang(steps, seed=3)
        u[row, 1] = np.nan
        assert math.isnan(simulate(sys, np.zeros(n - 1), u, steps * h, h).input_sup_norm)

    def test_times_are_step_multiples(self):
        steps, h = 7, 0.3
        traj = simulate(l2_system(8), np.zeros(7), ONE_SIDED, steps * h, h)
        assert traj.times.dtype == np.float64
        assert traj.times.tobytes() == (np.arange(steps + 1) * h).tobytes()

    @pytest.mark.parametrize("x0_norm", [0.0, 2.0])
    def test_margin_matches_one_expression(self, x0_norm):
        n = 64
        sys = l2_system(n)
        x0 = np.sin(np.pi * sys.space.nodes())
        traj = simulate(sys, x0, bang_bang(40, seed=9), 2.0, 0.05)
        b = REFERENCE_BUNDLE
        margins = (b.beta_m * np.exp(-b.beta_omega * traj.times) * x0_norm
                   + b.gamma(traj.input_sup_norm) - traj.norms)
        k = int(np.argmin(margins))
        assert iss_margin(traj, b, x0_norm) == (float(margins[k]), float(traj.times[k]))

    @pytest.mark.parametrize("held, u_norm", [(False, "max"), (True, "euclidean")],
                             ids=["full-max", "held-euclidean"])
    def test_peak_memory(self, held, u_norm):
        # 2e5 steps at n = 4, where the step-length arrays outweigh the state.
        # The peak is the outputs (3.05 MiB) and the margins (1.53 MiB).  A
        # full |u| copy, a per-row norm array, an int64 times array and the
        # temporaries of beta would raise it to 7.88 MiB (full, max) and
        # 6.10 MiB (held).
        n, h, steps = 4, 1e-5, 200_000
        sys = l2_system(n, u_norm=u_norm)
        u = np.array([[1.0, -1.0]]) if held else bang_bang(steps, seed=5)
        sys.eigendecomposition()  # memoized before tracing
        tracemalloc.start()
        try:
            traj = simulate(sys, np.zeros(n - 1), u, steps * h, h)
            iss_margin(traj, REFERENCE_BUNDLE, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = traj.times.nbytes + traj.norms.nbytes
        margins = traj.norms.nbytes
        slack = 2**18
        assert peak < outputs + margins + issgains.simulate.BLOCK_BYTES + slack


class TestLiveModes:
    """simulate steps only the modes whose exp(lambda h) is nonzero, and
    takes the settled others' share of each norm from their Gram matrix.
    Every entry of every modal state stays bit for bit the stepwise
    oracle's, which steps every mode; a norm with settled modes stays
    within two summation orders of the oracle's (bit for bit without).
    Blocks of 7 rows carry the state across block edges."""

    @pytest.mark.parametrize("n, h, uniform, has_settled",
                             [(200, 0.05, False, True), (8, 0.01, False, False),
                              (200, 0.05, True, True), (8, 100.0, False, True)],
                             ids=["dead-modes", "all-live", "uniform-inputs", "all-settled"])
    def test_matches_stepwise_oracle(self, monkeypatch, n, h, uniform, has_settled):
        sys = l2_system(n)
        settled = settled_count(sys, h)
        if not has_settled:
            assert settled == 0
        elif n == 8:
            assert settled == n - 1
        else:
            assert 0 < settled < n - 1
        monkeypatch.setattr(issgains.simulate, "BLOCK_BYTES", 8 * (n - 1) * 7)
        steps = 40
        rng = np.random.default_rng(n)
        x0 = rng.standard_normal(n - 1)
        # Both inputs drive both ends.  Uniform samples give inexact
        # products u_j g_j and a cross term G_01 u_0 u_1 of either sign.
        u = rng.uniform(-1.0, 1.0, (steps, 2)) if uniform else bang_bang(steps, seed=n)
        traj = simulate(sys, x0, u, steps * h, h)
        oracle = simulate_stepwise(sys, x0, u, h, steps)
        np.testing.assert_array_equal(prefix_states(sys, x0, u, h, steps), oracle)
        np.testing.assert_array_equal(traj.states, oracle[-1:])
        if settled:
            assert_norms_near_stepwise(sys, x0, u, h, oracle, traj.norms)
        else:
            np.testing.assert_array_equal(traj.norms, stepwise_norms(sys, x0, oracle))

    @pytest.mark.parametrize("columns", [1, 2])
    def test_working_set(self, columns):
        """At n = 1000 and h = 5e-4, as in the long-horizon benchmark, 600
        full-input steps take BLOCK_BYTES, the two step-length outputs and a
        fixed slack: 16 units of 8(n - 1) B for the arrays of the modes'
        length (V^T B, V^T x0 and their transform buffers, lambda h, phi,
        W, the decayed row and the final state) and numpy's iterator
        buffers of a broadcast product, two of np.getbufsize() doubles."""
        n, h, steps = 1000, 5e-4, 600
        sys = l2_system(n)
        if columns == 1:
            sys = one_sided(sys)
        u = bang_bang(steps, seed=11, columns=columns)
        x0 = np.zeros(n - 1)
        # Memoizes the spectrum and the FFT's plan for this length.
        simulate(sys, x0, u, steps * h, h)
        tracemalloc.start()
        try:
            traj = simulate(sys, x0, u, steps * h, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = traj.times.nbytes + traj.norms.nbytes
        slack = 16 * 8 * (n - 1) + 2 * 8 * np.getbufsize()
        assert peak < issgains.simulate.BLOCK_BYTES + outputs + slack


def random_tridiagonal_system(n, seed):
    """A Hurwitz system whose generator has no constant diagonals; its
    eigenpairs come from the dense oracle, since the library has the
    uniform closed form only."""
    rng = np.random.default_rng(seed)
    space = WeightedSpace(n, weight_exponent=1)
    off = rng.uniform(0.5, 2.0, n - 2)
    diag = -rng.uniform(4.5, 6.0, n - 1)
    b = np.zeros((n - 1, 2))
    b[0, 0] = rng.uniform(1.0, 2.0)
    b[-1, 1] = rng.uniform(1.0, 2.0)
    return with_dense_eig(space, diag, off, b)


class TestModalStepping:
    """simulate against the same number of iterated step_exact calls."""

    STEPS = 700

    @pytest.mark.parametrize("system", [l2_system(60), random_tridiagonal_system(40, seed=8)],
                             ids=["heat", "random"])
    def test_matches_iterated_step_exact(self, system, monkeypatch):
        h = 0.01
        rng = np.random.default_rng(21)
        x = rng.standard_normal(system.space.interior_nodes)
        u = rng.uniform(-1.0, 1.0, (self.STEPS, 2))
        traj = simulate(system, x, u, self.STEPS * h, h)
        assert traj.states.shape == (1, x.size)
        # With one-row blocks a prefix run takes the very steps of the full
        # run, so its final state is the full run's row, bit for bit, even
        # for these inexact products u_j g_j.
        monkeypatch.setattr(issgains.simulate, "BLOCK_BYTES", 8 * x.size)
        one_row = simulate(system, x, u, self.STEPS * h, h)
        states = prefix_states(system, x, u, h, self.STEPS)
        scale = math.sqrt(system.space.dx)
        modal = states[1:]
        np.testing.assert_array_equal(one_row.norms[1:],
                                      scale * np.sqrt(np.einsum("ij,ij->i", modal, modal)))
        nodes = node_values(system, states)
        worst = 0.0
        for i in range(self.STEPS):
            x = step_exact(system, x, u[i], h)
            worst = max(worst, np.max(np.abs(nodes[i + 1] - x)))
        assert worst <= 1e-13 * np.max(np.abs(nodes))
        norms = scale * np.linalg.norm(nodes, axis=1)
        np.testing.assert_allclose(traj.norms, norms, rtol=1e-14)

    def test_modal_norms_print_as_node_norms(self):
        """The 10-digit strings of the trajectory CSV are the same whether
        the norms come from the modal rows or from the node values."""
        n, steps, h = 256, 2000, 0.001
        system = one_sided(l2_system(n))
        u = bang_bang(steps, seed=20240501, columns=1)
        traj = simulate(system, np.zeros(n - 1), u, steps * h, h)
        # The rows of simulate itself: no mode settles at this n and h, so
        # the stepwise oracle and simulate agree bit for bit, norms included.
        modal = simulate_stepwise(system, np.zeros(n - 1), u, h, steps)
        np.testing.assert_array_equal(traj.norms, stepwise_norms(system, np.zeros(n - 1), modal))
        nodes = node_values(system, modal)
        node_norms = math.sqrt(system.space.dx) * np.sqrt(np.einsum("ij,ij->i", nodes, nodes))
        assert [f"{r:.10g}" for r in traj.norms] == [f"{r:.10g}" for r in node_norms]


class TestStepCount:
    @pytest.mark.parametrize("t_end, h, steps", [(3.0, 0.05, 60), (3.0, 0.0005, 6000),
                                                 (0.3, 0.1, 3), (1.0, 1.0, 1),
                                                 (MAX_STEPS * 0.05, 0.05, MAX_STEPS)])
    def test_whole_steps(self, t_end, h, steps):
        assert step_count(t_end, h) == steps

    @pytest.mark.parametrize("t_end, h", [(0.1, 0.07), (3.0, 0.07), (0.01, 0.1),
                                          (0.0, 0.1), (1.0, -0.1), (1.0, 1e-320),
                                          (math.inf, 0.1), (math.nan, 0.1),
                                          ((MAX_STEPS + 1) * 0.05, 0.05),
                                          # t_end / h underflows to 0 steps
                                          (1.0, math.inf), (5e-324, 10.0)])
    def test_rejects(self, t_end, h):
        with pytest.raises(ValueError):
            step_count(t_end, h)


class TestInputSignal:
    def test_sup_norm_max(self):
        assert input_sup_norm([(0.5, -1.0), (0.25, 0.0)], "max") == 1.0

    def test_sup_norm_euclidean(self):
        assert input_sup_norm([(1.0, 1.0)], "euclidean") == pytest.approx(math.sqrt(2.0))

    def test_bang_bang_reproducible(self):
        u1 = bang_bang(40, seed=123)
        u2 = bang_bang(40, seed=123)
        np.testing.assert_array_equal(u1, u2)
        assert set(np.unique(u1)) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("norm", ["max", "euclidean"])
    def test_sup_norm_is_largest_sample_norm(self, norm):
        space = WeightedSpace(4, input_norm=norm)
        values = np.random.default_rng(7).uniform(-2.0, 2.0, (300, 2))
        assert input_sup_norm(values, norm) == max(space.input_sample_norm(v) for v in values)
        bang = bang_bang(300, seed=11)
        assert input_sup_norm(bang, norm) == max(space.input_sample_norm(v) for v in bang)

    def test_bang_bang_one_sided(self):
        # One stored column, the first column of the two-sided draw.
        u = bang_bang(40, seed=3, columns=1)
        assert u.shape == (40, 1)
        np.testing.assert_array_equal(u[:, 0], bang_bang(40, seed=3)[:, 0])
        assert input_sup_norm(u, "max") == 1.0

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bang_bang_seed_outside_64_bits(self, seed):
        # bang_bang draws from the config's seed, which the config refuses
        # outside [0, 2**64).
        with pytest.raises(ConfigError, match="^seed must fit in 64 bits$"):
            RunConfig(seed=seed).validate()

    def test_bang_bang_levels_uniform(self):
        steps = 30000
        u = bang_bang(steps, seed=20240501)
        sigma = math.sqrt(steps * (1.0 / 3.0) * (2.0 / 3.0))
        for column in u.T:
            for level in (-1.0, 0.0, 1.0):
                assert abs(np.count_nonzero(column == level) - steps / 3) < 5.0 * sigma, level
        assert not np.array_equal(u[:, 0], u[:, 1])

    def test_bang_bang_one_step(self):
        for seed in (0, 5, 2**64 - 1):
            u = bang_bang(1, seed=seed)
            assert u.shape == (1, 2)
            assert set(u[0]) <= {-1.0, 0.0, 1.0} and np.any(u)

    def test_bang_bang_all_zero_draw_gets_a_one(self):
        # Seed 1's first byte is b with b % 3 == 1, level 0, so its one-step
        # one-sided draw is all zero before the fix-up.
        assert random.Random(1).randbytes(1)[0] % 3 == 1
        np.testing.assert_array_equal(bang_bang(1, seed=1, columns=1), [[1.0]])

    @pytest.mark.parametrize("steps", [1, 12, 2000])
    def test_bang_bang_matches_byte_loop(self, steps):
        """Against the draw written out byte by byte: bytes of
        random.Random(seed), 255 skipped, b % 3 - 1, one column at a time."""
        seed = 20240501
        assert 255 in random.Random(seed).randbytes(2000)
        rng = random.Random(seed)
        columns = []
        for _ in range(2):
            levels = []
            while len(levels) < steps:
                levels += [b % 3 - 1 for b in rng.randbytes(steps - len(levels)) if b != 255]
            columns.append(levels)
        np.testing.assert_array_equal(bang_bang(steps, seed), np.array(columns, dtype=float).T)

    def test_bang_bang_golden(self):
        # The first draws of the simulate command's bang-bang input at the
        # default seed: a change to the draw changes the bang-bang artifacts.
        u = bang_bang(12, seed=20240501, columns=1)
        np.testing.assert_array_equal(u[:, 0], [0, -1, 0, 0, 1, 1, 1, -1, 0, -1, 1, -1])


class TestIssMargin:
    def test_one_sided_constant_matches_steady_state(self):
        n = 1000
        sys = l2_system(n)
        traj = simulate(sys, np.zeros(n - 1), ONE_SIDED, 3.0, 0.05)
        margin, at = iss_margin(traj, REFERENCE_BUNDLE, 0.0)
        assert margin == pytest.approx(0.8989 - 1.0 / math.sqrt(3.0), abs=2e-3)
        assert at == pytest.approx(3.0)

    def test_free_decay_has_nonnegative_margin(self):
        n = 200
        sys = l2_system(n)
        x0 = np.sin(np.pi * sys.space.nodes())
        traj = simulate(sys, x0, ZERO, 1.0, 0.02)
        margin, _ = iss_margin(traj, REFERENCE_BUNDLE, traj.norms[0])
        assert margin >= 0.0

    def test_two_sided_constant_violates_l2_reading(self):
        # Diagnostic case: steady state is identically 1 in the L2 norm, above
        # the max-norm gain offset 0.8989.
        n = 500
        sys = l2_system(n)
        traj = simulate(sys, np.zeros(n - 1), TWO_SIDED, 3.0, 0.05)
        margin, _ = iss_margin(traj, REFERENCE_BUNDLE, 0.0)
        assert margin == pytest.approx(0.8989 - 1.0, abs=3e-3)

    def test_bang_bang_suite_positive_margin(self):
        n = 100
        sys = l2_system(n)
        worst = math.inf
        for seed in range(50):
            u = bang_bang(60, seed=seed, columns=1)
            traj = simulate(one_sided(sys, seed % 2), np.zeros(n - 1), u, 3.0, 0.05)
            margin, _ = iss_margin(traj, REFERENCE_BUNDLE, 0.0)
            worst = min(worst, margin)
        assert worst > 0.0

    def test_margins_follow_the_gain_formula(self):
        # Every sample, not only the minimum: margins of a decaying state
        # with x0_norm > 0, against beta and gamma evaluated one time at a time.
        n = 64
        sys = l2_system(n)
        x0 = np.sin(np.pi * sys.space.nodes())
        traj = simulate(sys, x0, bang_bang(40, seed=9), 2.0, 0.05)
        margin, at = iss_margin(traj, REFERENCE_BUNDLE, 2.0)
        expected = [2.0 * math.exp(-REFERENCE_BUNDLE.beta_omega * t)
                    + REFERENCE_BUNDLE.gamma_slope * traj.input_sup_norm - norm
                    for t, norm in zip(traj.times, traj.norms)]
        k = int(np.argmin(expected))
        assert margin == pytest.approx(expected[k], rel=1e-14, abs=1e-15)
        assert at == traj.times[k]


class TestTrotterKato:
    def test_first_mode_second_order(self):
        g16, g32, g64 = trotter_kato_gaps(1.0, [(1, 1.0)], 0.1, [16, 32, 64])
        assert 3.0 <= g16 / g32 <= 5.0
        assert 3.0 <= g32 / g64 <= 5.0

    def test_third_mode(self):
        gaps = trotter_kato_gaps(1.0, [(3, 1.0)], 0.05, [32, 64, 128])
        assert all(g0 / g1 >= 2.0 for g0, g1 in zip(gaps, gaps[1:]))

    def test_values_pinned(self):
        # Bit for bit, so that any change in how the exact step rounds shows.
        gaps = trotter_kato_gaps(1.0, [(1, 1.0), (3, 0.5)], 0.05, [16, 32, 64, 128])
        ratios = [g0 / g1 for g0, g1 in zip(gaps, gaps[1:])]
        assert [gap.hex() for gap in gaps] == [
            "0x1.0f0b4a952538fp-10",
            "0x1.0d7ddde8dd30fp-12",
            "0x1.0d1c3ca7dd7d3p-14",
            "0x1.0d03efcb9912ap-16",
        ]
        assert [ratio.hex() for ratio in ratios] == [
            "0x1.017987308d0bep+2",
            "0x1.005cdfa70c7acp+2",
            "0x1.00171fe2b83e7p+2",
        ]
