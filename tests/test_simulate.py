import math
import tracemalloc

import numpy as np
import pytest

import issgains.simulate
from issgains.config import DEFAULT_THETA, MAX_STEPS, step_count
from issgains.gains import GainBundle
from issgains.simulate import (
    Trajectory,
    bang_bang,
    iss_margin,
    simulate,
    step_exact,
    trotter_kato_check,
)
from issgains.systems import (
    ClosedControlSystem,
    GridSpec,
    WeightedSpace,
    build_heat_dirichlet,
)
from oracles import prefix_states, simulate_stepwise, with_dense_eig

REFERENCE_BUNDLE = GainBundle(
    alpha=0.5, theta=DEFAULT_THETA, k1=3.1408, k2=0.5626, kappa=0.6359,
    frac_norm_limit=1.4136, mu_e=1.0, beta_m=1.0, beta_omega=9.8647,
    gamma_slope=0.8989,
)


ZERO = np.zeros((1, 2))
ONE_SIDED = np.array([[1.0, 0.0]])
TWO_SIDED = np.array([[1.0, 1.0]])


def l2_system(n, a=1.0, u_norm="max"):
    space = WeightedSpace(GridSpec(n), weight_exponent=1, input_norm=u_norm)
    return build_heat_dirichlet(n, a, space)


def node_values(sys, modal):
    """Modal rows y_i as node values x_i = V y_i, one row each."""
    return (sys.eigendecomposition().eigenvectors @ modal.T).T


def stepwise_norms(sys, x0, modal):
    """The norms simulate reports for the modal rows of a run from x0."""
    norms = np.empty(len(modal))
    norms[0] = np.linalg.norm(x0)
    norms[1:] = np.sqrt(np.einsum("ij,ij->i", modal[1:], modal[1:]))
    return norms * sys.space.state_scale


def input_sup_norm(u, u_norm):
    """input_sup_norm of a run that applies each row of u for one step."""
    u = np.asarray(u, dtype=float)
    sys = l2_system(4, u_norm=u_norm)
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


class TestSimulate:
    def test_eigenvector_decay_exact(self):
        n = 100
        sys = l2_system(n)
        grid = sys.space.grid
        for k in (1, 3):
            x0 = np.sin(k * np.pi * grid.nodes())
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
        x0 = np.sin(np.pi * sys.space.grid.nodes())
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
        dx = sys.space.grid.dx
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
        sys = build_heat_dirichlet(n, 1.0, WeightedSpace(GridSpec(n), weight_exponent=2))
        x0 = np.sin(np.pi * sys.space.grid.nodes())
        u = bang_bang(20, seed=5)
        traj = simulate(sys, x0, u, 1.0, 0.05)
        nodes = node_values(sys, prefix_states(sys, x0, u, 0.05, 20))
        dx = sys.space.grid.dx
        for state, norm in zip(nodes, traj.norms, strict=True):
            assert norm == pytest.approx(dx * np.linalg.norm(state), rel=1e-12, abs=1e-15)

    def test_held_row_equals_repeated_rows(self):
        n, steps, h = 1000, 40, 0.01
        sys = l2_system(n)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(n - 1)
        row = rng.uniform(-1.0, 1.0, (1, 2))
        rows = np.repeat(row, steps, axis=0)
        held = simulate(sys, x0, row, steps * h, h)
        repeated = simulate(sys, x0, rows, steps * h, h)
        np.testing.assert_array_equal(prefix_states(sys, x0, row, h, steps),
                                      prefix_states(sys, x0, rows, h, steps))
        np.testing.assert_array_equal(held.states, repeated.states)
        np.testing.assert_array_equal(held.norms, repeated.norms)
        assert held.input_sup_norm == repeated.input_sup_norm

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

    @pytest.mark.parametrize("u", [ONE_SIDED, TWO_SIDED, bang_bang(60, 20240501, active=(0,))],
                             ids=["onesided", "twosided", "bangbang"])
    def test_matches_stepwise_oracle(self, u):
        """The three scenarios of the simulate command, bit for bit against
        the one-step-at-a-time loop."""
        n, h = 64, 0.05
        sys = l2_system(n)
        traj = simulate(sys, np.zeros(n - 1), u, 3.0, h)
        oracle = simulate_stepwise(sys, np.zeros(n - 1), u, h, 60)
        np.testing.assert_array_equal(prefix_states(sys, np.zeros(n - 1), u, h, 60), oracle)
        np.testing.assert_array_equal(traj.states, oracle[-1:])
        np.testing.assert_array_equal(traj.norms, stepwise_norms(sys, np.zeros(n - 1), oracle))

    def test_partial_step_rejected(self):
        sys = l2_system(4)
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(sys, np.zeros(3), ONE_SIDED, 0.1, 0.07)


class TestBlocks:
    """simulate with its block buffer shrunk to a few rows, bit for bit
    against the one-step-at-a-time loop.

    The inputs take values in {-1, 0, 1}, as every scenario of the simulate
    command does, so that each product u_j g_j is exact.  Otherwise the
    block's matrix product and the oracle's matrix-vector product round
    differently, at the parent design's single full-length product too."""

    @pytest.mark.parametrize("block_rows, steps", [(3, 10), (1, 7), (0, 6), (16, 5), (4, 1)],
                             ids=["ragged", "one-row", "budget-below-one-row", "steps-below-block",
                                  "one-step"])
    @pytest.mark.parametrize("held", [True, False], ids=["held", "full"])
    def test_matches_stepwise_oracle(self, monkeypatch, block_rows, steps, held):
        n, h = 32, 0.05
        sys = l2_system(n)
        monkeypatch.setattr(issgains.simulate, "BLOCK_BYTES", 8 * (n - 1) * block_rows)
        rng = np.random.default_rng(steps)
        x0 = rng.standard_normal(n - 1)
        u = np.array([[1.0, -1.0]]) if held else bang_bang(steps, seed=steps)
        traj = simulate(sys, x0, u, steps * h, h)
        oracle = simulate_stepwise(sys, x0, u, h, steps)
        np.testing.assert_array_equal(traj.states, oracle[-1:])
        np.testing.assert_array_equal(traj.norms, stepwise_norms(sys, x0, oracle))

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


def random_tridiagonal_system(n, seed):
    """A Hurwitz system whose generator has no constant diagonals; its
    eigenpairs come from the dense oracle, since the library has the
    uniform closed form only."""
    rng = np.random.default_rng(seed)
    space = WeightedSpace(GridSpec(n), weight_exponent=1)
    off = rng.uniform(0.5, 2.0, n - 2)
    diag = -rng.uniform(4.5, 6.0, n - 1)
    b = np.zeros((n - 1, 2))
    b[0, 0] = rng.uniform(1.0, 2.0)
    b[-1, 1] = rng.uniform(1.0, 2.0)
    return with_dense_eig(ClosedControlSystem(space=space, a_diag=diag, a_offdiag=off, b_matrix=b))


class TestModalStepping:
    """simulate against the same number of iterated step_exact calls."""

    STEPS = 700

    @pytest.mark.parametrize("system", [l2_system(60), random_tridiagonal_system(40, seed=8)],
                             ids=["heat", "random"])
    def test_matches_iterated_step_exact(self, system, monkeypatch):
        h = 0.01
        rng = np.random.default_rng(21)
        x = rng.standard_normal(system.space.grid.interior_nodes)
        u = rng.uniform(-1.0, 1.0, (self.STEPS, 2))
        traj = simulate(system, x, u, self.STEPS * h, h)
        assert traj.states.shape == (1, x.size)
        # With one-row blocks a prefix run takes the very steps of the full
        # run, so its final state is the full run's row, bit for bit, even
        # for these inexact products u_j g_j.
        monkeypatch.setattr(issgains.simulate, "BLOCK_BYTES", 8 * x.size)
        one_row = simulate(system, x, u, self.STEPS * h, h)
        states = prefix_states(system, x, u, h, self.STEPS)
        scale = math.sqrt(system.space.grid.dx)
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
        system = l2_system(n)
        u = bang_bang(steps, seed=20240501, active=(0,))
        traj = simulate(system, np.zeros(n - 1), u, steps * h, h)
        # The rows of simulate itself, as the stepwise oracle and simulate
        # agree bit for bit (test_matches_stepwise_oracle).
        modal = simulate_stepwise(system, np.zeros(n - 1), u, h, steps)
        np.testing.assert_array_equal(traj.norms, stepwise_norms(system, np.zeros(n - 1), modal))
        nodes = node_values(system, modal)
        node_norms = math.sqrt(system.space.grid.dx) * np.sqrt(np.einsum("ij,ij->i", nodes, nodes))
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
        space = WeightedSpace(GridSpec(4), input_norm=norm)
        values = np.random.default_rng(7).uniform(-2.0, 2.0, (300, 2))
        assert input_sup_norm(values, norm) == max(space.input_sample_norm(v) for v in values)
        bang = bang_bang(300, seed=11)
        assert input_sup_norm(bang, norm) == max(space.input_sample_norm(v) for v in bang)

    def test_bang_bang_one_sided(self):
        u = bang_bang(40, seed=3, active=(0,))
        assert np.all(u[:, 1] == 0.0)
        assert input_sup_norm(u, "max") == 1.0


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
        x0 = np.sin(np.pi * sys.space.grid.nodes())
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
            u = bang_bang(60, seed=seed, active=(seed % 2,))
            traj = simulate(sys, np.zeros(n - 1), u, 3.0, 0.05)
            margin, _ = iss_margin(traj, REFERENCE_BUNDLE, 0.0)
            worst = min(worst, margin)
        assert worst > 0.0

    def test_margins_follow_the_gain_formula(self):
        # Every sample, not only the minimum: margins of a decaying state
        # with x0_norm > 0, against beta and gamma evaluated one time at a time.
        n = 64
        sys = l2_system(n)
        x0 = np.sin(np.pi * sys.space.grid.nodes())
        traj = simulate(sys, x0, bang_bang(40, seed=9), 2.0, 0.05)
        margin, at = iss_margin(traj, REFERENCE_BUNDLE, 2.0)
        expected = [2.0 * math.exp(-REFERENCE_BUNDLE.beta_omega * t)
                    + REFERENCE_BUNDLE.gamma_slope * traj.input_sup_norm - norm
                    for t, norm in zip(traj.times, traj.norms)]
        k = int(np.argmin(expected))
        assert margin == pytest.approx(expected[k], rel=1e-14, abs=1e-15)
        assert at == traj.times[k]

    def test_empty_trajectory(self):
        traj = Trajectory(times=np.array([]), states=np.empty((0, 3)), norms=np.array([]),
                          input_sup_norm=0.0)
        with pytest.raises(ValueError):
            iss_margin(traj, REFERENCE_BUNDLE, 0.0)


class TestTrotterKato:
    def test_first_mode_second_order(self):
        report = trotter_kato_check(1.0, [(1, 1.0)], 0.1, [16, 32, 64])
        assert report.verdict == "pass"
        assert 3.0 <= report.values["ratio_16_32"] <= 5.0
        assert 3.0 <= report.values["ratio_32_64"] <= 5.0

    def test_third_mode(self):
        report = trotter_kato_check(1.0, [(3, 1.0)], 0.05, [32, 64, 128])
        assert report.verdict == "pass"

    def test_time_zero_rejected(self):
        with pytest.raises(ValueError):
            trotter_kato_check(1.0, [(1, 1.0)], 0.0, [16, 32])
