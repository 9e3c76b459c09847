import math

import numpy as np
import pytest

from issgains.gains import DEFAULT_THETA, GainBundle
from issgains.simulate import (
    BLOCK_ROWS,
    MAX_STEPS,
    InputSignal,
    Trajectory,
    iss_margin,
    simulate,
    step_count,
    step_exact,
    trotter_kato_check,
)
from issgains.systems import (
    ClosedControlSystem,
    GridSpec,
    WeightedSpace,
    build_heat_dirichlet,
    restrict,
)

REFERENCE_BUNDLE = GainBundle(
    alpha=0.5, theta=DEFAULT_THETA, k1=3.1408, k2=0.5626, kappa=0.6359,
    frac_norm_limit=1.4136, mu_e=1.0, beta_m=1.0, beta_omega=9.8647,
    gamma_slope=0.8989,
)


def l2_system(n, a=1.0, u_norm="max"):
    space = WeightedSpace(GridSpec(n), weight_exponent=1, input_norm=u_norm)
    return build_heat_dirichlet(n, a, space)


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
            traj = simulate(sys, x0, InputSignal.constant((0.0, 0.0), sys.space), 0.5, 0.01)
            lam = -4.0 * n**2 * math.sin(k * math.pi / (2 * n)) ** 2
            scale = np.linalg.norm(x0)
            for t, state in zip(traj.times, traj.states):
                exact = math.exp(lam * t) * x0
                assert np.linalg.norm(state - exact) <= 1e-10 * scale

    def test_norm_decay_rate(self):
        n = 1000
        sys = l2_system(n)
        x0 = np.sin(np.pi * sys.space.grid.nodes())
        traj = simulate(sys, x0, InputSignal.constant((0.0, 0.0), sys.space), 0.2, 0.01)
        omega_n = 4.0 * n**2 * math.sin(math.pi / (2 * n)) ** 2
        for t, norm in zip(traj.times, traj.norms):
            assert norm == pytest.approx(math.exp(-omega_n * t) * traj.norms[0], rel=1e-9)

    def test_one_sided_steady_state(self):
        n = 200
        sys = l2_system(n)
        traj = simulate(sys, np.zeros(n - 1), InputSignal.constant((1.0, 0.0), sys.space), 3.0, 0.1)
        k = np.arange(1, n)
        np.testing.assert_allclose(traj.states[-1], 1.0 - k / n, atol=1e-10)
        assert traj.norms[-1] == pytest.approx(1.0 / math.sqrt(3.0), abs=3e-3)

    def test_superposition(self):
        n = 100
        sys = l2_system(n)
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal(n - 1)
        signal = InputSignal.bang_bang(50, sys.space, seed=99)
        both = simulate(sys, x0, signal, 2.5, 0.05)
        free = simulate(sys, x0, InputSignal.constant((0.0, 0.0), sys.space), 2.5, 0.05)
        forced = simulate(sys, np.zeros(n - 1), signal, 2.5, 0.05)
        scale = max(1.0, np.max(np.abs(both.states)))
        assert np.max(np.abs(both.states - free.states - forced.states)) <= 1e-10 * scale

    def test_zero_everything(self):
        sys = l2_system(16)
        traj = simulate(sys, np.zeros(15), InputSignal.constant((0.0, 0.0), sys.space), 1.0, 0.1)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.norms == 0.0)

    def test_norms_recomputable(self):
        sys = l2_system(32)
        signal = InputSignal.bang_bang(20, sys.space, seed=5)
        traj = simulate(sys, np.zeros(31), signal, 1.0, 0.05)
        dx = sys.space.grid.dx
        for state, norm in zip(traj.states, traj.norms):
            assert norm == pytest.approx(math.sqrt(dx) * np.linalg.norm(state), abs=1e-12)

    def test_step_budget(self):
        sys = l2_system(4)
        with pytest.raises(ValueError, match="budget"):
            simulate(sys, np.zeros(3), InputSignal.constant((0.0, 0.0), sys.space), 1e5, 1e-3)

    def test_insufficient_samples(self):
        sys = l2_system(4)
        sig = InputSignal.piecewise(np.zeros((3, 2)), sys.space)
        with pytest.raises(ValueError, match="samples"):
            simulate(sys, np.zeros(3), sig, 1.0, 0.1)

    def test_partial_step_rejected(self):
        sys = l2_system(4)
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(sys, np.zeros(3), InputSignal.constant((1.0, 0.0), sys.space), 0.1, 0.07)


def random_tridiagonal_system(n, seed):
    """A Hurwitz system whose generator has no constant diagonals."""
    rng = np.random.default_rng(seed)
    space = WeightedSpace(GridSpec(n), weight_exponent=1)
    off = rng.uniform(0.5, 2.0, n - 2)
    diag = -rng.uniform(4.5, 6.0, n - 1)
    b = np.zeros((n - 1, 2))
    b[0, 0] = rng.uniform(1.0, 2.0)
    b[-1, 1] = rng.uniform(1.0, 2.0)
    return ClosedControlSystem(space=space, a_diag=diag, a_offdiag=off, b_matrix=b, diffusion=1.0)


class TestModalStepping:
    """simulate against the same number of iterated step_exact calls."""

    STEPS = 700  # more than two back-transform blocks

    @pytest.mark.parametrize("system", [l2_system(60), random_tridiagonal_system(40, seed=8)],
                             ids=["heat", "random"])
    def test_matches_iterated_step_exact(self, system):
        assert self.STEPS > 2 * BLOCK_ROWS
        h = 0.01
        rng = np.random.default_rng(21)
        x = rng.standard_normal(system.space.grid.interior_nodes)
        signal = InputSignal.piecewise(rng.uniform(-1.0, 1.0, (self.STEPS, 2)), system.space)
        traj = simulate(system, x, signal, self.STEPS * h, h)
        assert traj.states.shape == (self.STEPS + 1, x.size)
        np.testing.assert_array_equal(traj.states[0], x)
        scale = np.max(np.abs(traj.states))
        worst = 0.0
        for i in range(self.STEPS):
            x = step_exact(system, x, signal.sample(i), h)
            worst = max(worst, np.max(np.abs(traj.states[i + 1] - x)))
        assert worst <= 1e-13 * scale
        norms = math.sqrt(system.space.grid.dx) * np.linalg.norm(traj.states, axis=1)
        np.testing.assert_allclose(traj.norms, norms, rtol=1e-14)


class TestStepCount:
    @pytest.mark.parametrize("t_end, h, steps", [(3.0, 0.05, 60), (3.0, 0.0005, 6000),
                                                 (0.3, 0.1, 3), (1.0, 1.0, 1),
                                                 (MAX_STEPS * 0.05, 0.05, MAX_STEPS)])
    def test_whole_steps(self, t_end, h, steps):
        assert step_count(t_end, h) == steps

    @pytest.mark.parametrize("t_end, h", [(0.1, 0.07), (3.0, 0.07), (0.01, 0.1),
                                          (0.0, 0.1), (1.0, -0.1), (1.0, 1e-320),
                                          (math.inf, 0.1), (math.nan, 0.1),
                                          ((MAX_STEPS + 1) * 0.05, 0.05)])
    def test_rejects(self, t_end, h):
        with pytest.raises(ValueError):
            step_count(t_end, h)


class TestInputSignal:
    def test_sup_norm_max(self):
        space = WeightedSpace(GridSpec(4), input_norm="max")
        sig = InputSignal.piecewise([(0.5, -1.0), (0.25, 0.0)], space)
        assert sig.sup_norm == 1.0

    def test_sup_norm_euclidean(self):
        space = WeightedSpace(GridSpec(4), input_norm="euclidean")
        sig = InputSignal.piecewise([(1.0, 1.0)], space)
        assert sig.sup_norm == pytest.approx(math.sqrt(2.0))

    def test_bang_bang_reproducible(self):
        space = WeightedSpace(GridSpec(4), weight_exponent=1)
        s1 = InputSignal.bang_bang(40, space, seed=123)
        s2 = InputSignal.bang_bang(40, space, seed=123)
        np.testing.assert_array_equal(s1.values, s2.values)
        assert set(np.unique(s1.values)) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("norm", ["max", "euclidean"])
    def test_sup_norm_is_largest_sample_norm(self, norm):
        space = WeightedSpace(GridSpec(4), input_norm=norm)
        values = np.random.default_rng(7).uniform(-2.0, 2.0, (300, 2))
        sig = InputSignal.piecewise(values, space)
        assert sig.sup_norm == max(space.input_sample_norm(v) for v in values)
        bang = InputSignal.bang_bang(300, space, seed=11)
        assert bang.sup_norm == max(space.input_sample_norm(v) for v in bang.values)

    def test_empty_piecewise_has_zero_sup_norm(self):
        sig = InputSignal.piecewise(np.zeros((0, 2)), WeightedSpace(GridSpec(4)))
        assert sig.sup_norm == 0.0

    def test_bang_bang_one_sided(self):
        space = WeightedSpace(GridSpec(4), weight_exponent=1)
        sig = InputSignal.bang_bang(40, space, seed=3, active=(0,))
        assert np.all(sig.values[:, 1] == 0.0)
        assert sig.sup_norm == 1.0


class TestIssMargin:
    def test_one_sided_constant_matches_steady_state(self):
        n = 1000
        sys = l2_system(n)
        signal = InputSignal.constant((1.0, 0.0), sys.space)
        traj = simulate(sys, np.zeros(n - 1), signal, 3.0, 0.05)
        margin, at = iss_margin(traj, REFERENCE_BUNDLE, 0.0, signal)
        assert margin == pytest.approx(0.8989 - 1.0 / math.sqrt(3.0), abs=2e-3)
        assert at == pytest.approx(3.0)

    def test_free_decay_has_nonnegative_margin(self):
        n = 200
        sys = l2_system(n)
        x0 = np.sin(np.pi * sys.space.grid.nodes())
        signal = InputSignal.constant((0.0, 0.0), sys.space)
        traj = simulate(sys, x0, signal, 1.0, 0.02)
        margin, _ = iss_margin(traj, REFERENCE_BUNDLE, traj.norms[0], signal)
        assert margin >= 0.0

    def test_two_sided_constant_violates_l2_reading(self):
        # Diagnostic case: steady state is identically 1 in the L2 norm, above
        # the max-norm gain offset 0.8989.
        n = 500
        sys = l2_system(n)
        signal = InputSignal.constant((1.0, 1.0), sys.space)
        traj = simulate(sys, np.zeros(n - 1), signal, 3.0, 0.05)
        margin, _ = iss_margin(traj, REFERENCE_BUNDLE, 0.0, signal)
        assert margin == pytest.approx(0.8989 - 1.0, abs=3e-3)

    def test_bang_bang_suite_positive_margin(self):
        n = 100
        sys = l2_system(n)
        worst = math.inf
        for seed in range(50):
            signal = InputSignal.bang_bang(60, sys.space, seed=seed, active=(seed % 2,))
            traj = simulate(sys, np.zeros(n - 1), signal, 3.0, 0.05)
            margin, _ = iss_margin(traj, REFERENCE_BUNDLE, 0.0, signal)
            worst = min(worst, margin)
        assert worst > 0.0

    def test_margins_follow_the_gain_formula(self):
        # Every sample, not only the minimum: margins of a decaying state
        # with x0_norm > 0, against beta and gamma evaluated one time at a time.
        n = 64
        sys = l2_system(n)
        signal = InputSignal.bang_bang(40, sys.space, seed=9)
        x0 = np.sin(np.pi * sys.space.grid.nodes())
        traj = simulate(sys, x0, signal, 2.0, 0.05)
        margin, at = iss_margin(traj, REFERENCE_BUNDLE, 2.0, signal)
        expected = [2.0 * math.exp(-REFERENCE_BUNDLE.beta_omega * t)
                    + REFERENCE_BUNDLE.gamma_slope * signal.sup_norm - norm
                    for t, norm in zip(traj.times, traj.norms)]
        k = int(np.argmin(expected))
        assert margin == pytest.approx(expected[k], rel=1e-14, abs=1e-15)
        assert at == traj.times[k]

    def test_empty_trajectory(self):
        traj = Trajectory(times=np.array([]), states=np.empty((0, 3)), norms=np.array([]))
        with pytest.raises(ValueError):
            iss_margin(traj, REFERENCE_BUNDLE, 0.0,
                       InputSignal.constant((0.0, 0.0), WeightedSpace(GridSpec(4))))


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
