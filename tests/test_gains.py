import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issgains.cli import main
from issgains.config import DEFAULT_SCHEDULE, LimitError, RunConfig
from issgains.gains import (
    LIMIT_TOL,
    THETA,
    GainBundle,
    PathSpec,
    assemble_gains,
    frac_control_norm,
    growth_bound,
    k_constants,
    sector_bound,
)
from issgains.simulate import simulate
from issgains.sweep import SweepRecord, run_sweep
from issgains.systems import build_heat_dirichlet
from oracles import (
    WINDOW,
    a_matrix,
    exact_gain_bracket,
    frac_control_norm_gram,
    frac_norm_limit_p1,
    frac_semigroup_excess,
    resolvent_constant_scan,
)

REFERENCE_OMEGA = 9.8647
REFERENCE_D = 0.9991
# Two resolutions that have reached the reference limits.
REFERENCE_RECORDS = [SweepRecord(n=n, omega_n=REFERENCE_OMEGA, d_n=REFERENCE_D,
                                 frac_norm_n=math.sqrt(2.0)) for n in (2000, 4000)]


class TestGrowthBound:
    def test_n3(self):
        assert growth_bound(build_heat_dirichlet(3, 1.0)) == pytest.approx(9.0, rel=1e-12)

    def test_large_n_approaches_pi_squared(self):
        omega = growth_bound(build_heat_dirichlet(4000, 1.0))
        assert omega == pytest.approx(math.pi**2, abs=1e-3)

    def test_diffusion_scaling(self):
        omega1 = growth_bound(build_heat_dirichlet(20, 1.0))
        omega2 = growth_bound(build_heat_dirichlet(20, 2.0))
        assert omega2 == pytest.approx(2.0 * omega1, rel=1e-12)

    def test_omega_monotone_toward_limit(self):
        omegas = [growth_bound(build_heat_dirichlet(n, 1.0))
                  for n in (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))
        assert omegas[-1] < math.pi**2


class TestSectorBound:
    def test_large_n_reference(self):
        d = sector_bound(build_heat_dirichlet(4000, 1.0), WINDOW)
        assert d == pytest.approx(0.9991, abs=1e-4)

    def test_n3_endpoint(self):
        d = sector_bound(build_heat_dirichlet(3, 1.0), WINDOW)
        assert d == pytest.approx(10001.0 / 10009.0, rel=1e-12)

    @settings(max_examples=300, deadline=None, database=None)
    @given(lo=st.floats(-6.0, 0.0), hi=st.floats(1.0, 8.0), count=st.integers(2, 4000),
           omega=st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
           | st.floats(1.0 - 1e-6, 1.0 + 1e-6))
    def test_window_ends_match_grid_scan(self, lo, hi, count, omega):
        """The closed form at the window's ends against the scan of the
        grid, for lambda_min in [1e-6, 1], lambda_max in [10, 1e8] and up to
        4000 points.  For |omega - 1| > 1e-6 they agree bitwise: no sample
        of 200 000 differed, half of them with |omega - 1| in (1e-6, 3e-6).
        Closer to 1, every (lambda + 1) / (lambda + omega) is within ulps of
        1 and an interior point can round above both ends: of 100 000 such
        samples the scan came out higher in 24, by 1 ulp, and never lower."""
        path = PathSpec(10.0**lo, 10.0**hi)
        d = path.resolvent_constant(omega)
        scan = resolvent_constant_scan(path, omega, count)
        if abs(omega - 1.0) > 1e-6:
            assert d == scan
        else:
            assert scan - 2 * math.ulp(scan) <= d <= scan

    def test_unit_spectral_gap_gives_one(self):
        # Synthetic check on the scan formula itself at mu_min = 1.
        assert resolvent_constant_scan(WINDOW, 1.0, 400) == 1.0


class TestFracControlNorm:
    def test_max_norm_is_sqrt_two(self):
        sys = build_heat_dirichlet(100, 1.0)
        assert frac_control_norm(sys, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_euclidean_norm_is_one(self):
        sys = build_heat_dirichlet(100, 1.0, weight_exponent=2, input_norm="euclidean")
        assert frac_control_norm(sys, 0.5) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [10, 100, 500])
    def test_gram_oracle_agreement(self, n):
        sys = build_heat_dirichlet(n, 1.0)
        spectral = frac_control_norm(sys, 0.5)
        gram = frac_control_norm_gram(sys)
        assert spectral == pytest.approx(gram, rel=1e-9)

    def test_gram_oracle_euclidean_route(self):
        sys = build_heat_dirichlet(64, 1.0, weight_exponent=2, input_norm="euclidean")
        assert frac_control_norm(sys, 0.5) == pytest.approx(frac_control_norm_gram(sys), rel=1e-9)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            frac_control_norm(build_heat_dirichlet(10, 1.0), 1.5)


class TestKConstants:
    def test_reference_configuration(self):
        k1, k2, kappa = k_constants(0.5, REFERENCE_OMEGA, REFERENCE_D)
        assert k1 == pytest.approx(3.1408, abs=1e-3)
        assert k1 == pytest.approx(math.sqrt(9.8647), rel=1e-8)
        # Closed form D / sqrt(pi); the rounded reference 0.5626 is ~0.2% lower.
        assert k2 == pytest.approx(0.9991 / math.sqrt(math.pi), rel=1e-8)
        assert 0.5620 <= k2 <= 0.5645
        assert 0.6350 <= kappa <= 0.6370

    def test_closed_form_cross_checks_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            alpha = rng.uniform(0.1, 0.9)
            omega = rng.uniform(0.5, 50.0)
            d = rng.uniform(0.5, 2.0)
            k1, k2, _ = k_constants(alpha, omega, d)
            assert k1 == pytest.approx(omega**alpha, rel=1e-8)
            expected_k2 = d / (math.gamma(1.0 - alpha) * math.sin(math.pi * alpha))
            assert k2 == pytest.approx(expected_k2, rel=1e-8)

    def test_kappa_formula(self):
        alpha = 0.3
        k1, k2, kappa = k_constants(alpha, 4.0, 1.0)
        assert kappa == pytest.approx(k1 / 4.0 + k2 * 4.0**-alpha * math.gamma(alpha), rel=1e-12)

    def test_theta_is_the_best_admissible_angle(self):
        # An admissible sector angle whose 1/|cos theta| is the infimum 1
        # exactly, so no other angle gives a smaller K2.
        assert math.pi / 2 < THETA < math.pi
        assert abs(math.cos(THETA)) == 1.0


class TestAssembleGains:
    def test_reference_chain_gamma_slope(self):
        bundle = assemble_gains(REFERENCE_RECORDS, 0.5, 1.0, 1.0, weight_exponent=2)
        assert 0.896 <= bundle.gamma_slope <= 0.903

    def test_reported_slope_with_reference_kappa(self):
        # The rounded reference kappa times the reference fractional norm.
        assert 0.6359 * 1.4136 == pytest.approx(0.8989, abs=2e-4)

    def test_one_sided_reference_value(self):
        assert math.sqrt(2.0 / 3.0) == pytest.approx(0.8165, abs=1e-4)

    def test_bundle_invariants_recompute(self):
        mu_e = 1.0
        bundle = assemble_gains(REFERENCE_RECORDS, 0.5, mu_p=1.0, mu_e=mu_e, weight_exponent=2)
        k1, k2, kappa = k_constants(bundle.alpha, REFERENCE_OMEGA, REFERENCE_D)
        assert bundle.theta == THETA
        assert bundle.k1 == pytest.approx(k1, abs=1e-12)
        assert bundle.k2 == pytest.approx(k2, abs=1e-12)
        assert bundle.kappa == pytest.approx(kappa, abs=1e-12)
        assert bundle.gamma_slope == pytest.approx(mu_e * bundle.kappa * bundle.frac_norm_limit,
                                                   abs=1e-12)

    def test_gain_shape(self):
        bundle = assemble_gains(REFERENCE_RECORDS, 0.5, 1.0, 1.0, weight_exponent=2)
        assert bundle.gamma(0.0) == 0.0
        assert bundle.gamma(2.0) > bundle.gamma(1.0) > 0.0
        times = np.array([0.5, 1.0])
        assert np.all(np.diff(bundle.beta(1.0, times)) < 0.0)
        assert np.all(bundle.beta(2.0, times) > bundle.beta(1.0, times))

    @pytest.mark.parametrize("t", [np.linspace(0.0, 3.0, 61), np.arange(12).reshape(3, 4),
                                   np.array([0.0, 1e-300, 0.05, 700.0])],
                             ids=["times", "int-2-d", "extremes"])
    @pytest.mark.parametrize("s", [0.0, 1.3])
    def test_beta_matches_one_expression(self, t, s):
        # beta_M exp(-omega t) s as one expression, bit for bit, in an array
        # of t's shape.
        bundle = assemble_gains(REFERENCE_RECORDS, 0.5, mu_p=1.1, mu_e=1.2,
                                weight_exponent=2)
        expected = bundle.beta_m * np.exp(-bundle.beta_omega * t) * s
        got = bundle.beta(s, t)
        assert type(got) is type(expected)
        assert np.shape(got) == np.shape(t)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


    @settings(max_examples=100, deadline=None, database=None)
    @given(omegas=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=6, unique=True),
           d_values=st.lists(st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False),
                             min_size=6, max_size=6),
           norms=st.lists(st.floats(0.0, 10.0, exclude_min=True, allow_subnormal=False),
                          min_size=5, max_size=5),
           previous_norm=st.floats(0.01, 9.99),
           last_step=st.floats(-2 * LIMIT_TOL, 2 * LIMIT_TOL),
           alpha=st.floats(0.05, 0.95),
           mu_p=st.floats(0.5, 2.0), mu_e=st.floats(0.5, 2.0))
    def test_limit_rules(self, omegas, d_values, norms, previous_norm, last_step,
                         alpha, mu_p, mu_e):
        # Synthetic sweeps: omega_n rises, and the last step of the fractional
        # norm straddles LIMIT_TOL times the last value.
        omegas = sorted(omegas)
        count = len(omegas)
        norm_values = norms[:count - 2] + [previous_norm, previous_norm + last_step]
        records = [SweepRecord(n=2**(k + 4), omega_n=omega, d_n=d, frac_norm_n=norm)
                   for k, (omega, d, norm) in enumerate(zip(omegas, d_values, norm_values))]
        if abs(norm_values[-1] - norm_values[-2]) > LIMIT_TOL * abs(norm_values[-1]):
            with pytest.raises(LimitError, match="frac_norm_limit did not converge"):
                assemble_gains(records, alpha, mu_p=mu_p, mu_e=mu_e, weight_exponent=2)
            return
        k1, k2, kappa = k_constants(alpha, omegas[-1], mu_p * mu_e * max(d_values[:count]))
        n = records[-1].n
        if mu_e * kappa * norm_values[-1] < math.sqrt(n - 1) / n:
            with pytest.raises(LimitError, match="is below .* the exact gain"):
                assemble_gains(records, alpha, mu_p=mu_p, mu_e=mu_e, weight_exponent=2)
            return
        bundle = assemble_gains(records, alpha, mu_p=mu_p, mu_e=mu_e, weight_exponent=2)
        assert bundle.beta_omega == omegas[-1]
        assert bundle.beta_m == mu_p * mu_e
        assert (bundle.k1, bundle.k2, bundle.kappa) == (k1, k2, kappa)
        assert bundle.frac_norm_limit == norm_values[-1]
        assert bundle.gamma_slope == mu_e * kappa * norm_values[-1]

    @pytest.mark.parametrize("norm, mu_p, mu_e, message", [
        # mu_p mu_e is inf or 0, and so are D, K2 and beta_M.
        (math.sqrt(2.0), 1e200, 1e200, "K2 = inf"),
        (math.sqrt(2.0), 1e-200, 1e-200, "K2 = 0"),
        (0.0, 1.0, 1.0, "frac_norm_limit = 0"),
        # beta_M = 1, but mu_e kappa norm underflows.
        (1e-30, 1e300, 1e-300, "gamma_slope = 0"),
    ])
    def test_uncertified_constant_is_named(self, norm, mu_p, mu_e, message):
        records = [SweepRecord(n=r.n, omega_n=r.omega_n, d_n=r.d_n, frac_norm_n=norm)
                   for r in REFERENCE_RECORDS]
        with pytest.raises(LimitError, match=f"^{message} is not finite and positive"):
            assemble_gains(records, 0.5, mu_p=mu_p, mu_e=mu_e, weight_exponent=2)

    def test_single_record_rejected(self):
        with pytest.raises(ValueError, match="at least 2 records"):
            assemble_gains(REFERENCE_RECORDS[:1], 0.5, 1.0, 1.0, weight_exponent=2)

    def test_weight_exponent_domain(self):
        # The exact gain is known in the two norms the space offers.
        with pytest.raises(ValueError, match="weight exponent must be 1 or 2, got 3"):
            assemble_gains(REFERENCE_RECORDS, 0.5, 1.0, 1.0, weight_exponent=3)

    @staticmethod
    def verdict(a, alpha):
        """The certified fractional norm of a 16, 32 sweep at p = 2, or None
        if the limit fails its Cauchy test."""
        records = run_sweep((16, 32), a, alpha, WINDOW)
        try:
            return assemble_gains(records, alpha, 1.0, 1.0, weight_exponent=2).frac_norm_limit
        except LimitError:
            return None

    @settings(max_examples=25, deadline=None, database=None)
    @given(a=st.floats(-8.0, 8.0).map(lambda exponent: 10.0**exponent))
    def test_verdict_is_scale_free(self, a):
        # a only rescales time, and the norm scales as a^alpha.  At alpha = 1/2
        # it is sqrt(2a) at every n, so every a passes; at alpha = 3/4 it
        # grows like n^(1/4), so every a fails, a = 1e-8 too, whose values
        # all lie below LIMIT_TOL.
        assert self.verdict(a, 0.5) == pytest.approx(math.sqrt(2.0 * a), rel=1e-12)
        assert self.verdict(a, 0.75) is None


class TestFracNormLimitAtP1:
    """At p = 1 and alpha < 1/4 the fractional norm rises toward the closed
    form of ``frac_norm_limit_p1``, so its last value lies on the unsafe side."""

    ALPHA = 0.05

    @pytest.mark.parametrize("a", [1e-3, 1.0, 7.0])
    def test_oracle_is_the_extrapolated_limit(self, a):
        # Richardson extrapolation at the rate n^-(1 - 4 alpha) of n = 2000, 4000.
        coarse, fine = (r.frac_norm_n for r in run_sweep(
            (2000, 4000), a, self.ALPHA, WINDOW, weight_exponent=1))
        extrapolated = fine + (fine - coarse) / (2.0 ** (1.0 - 4.0 * self.ALPHA) - 1.0)
        assert coarse < fine < frac_norm_limit_p1(self.ALPHA, a)
        assert extrapolated == pytest.approx(frac_norm_limit_p1(self.ALPHA, a), rel=1e-6)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
    def test_certified_limit_is_not_below_the_limit(self):
        # gains --weight_exponent 1 --alpha 0.05 certifies 1.168620125, below
        # the limit 1.1693324348.
        records = run_sweep(DEFAULT_SCHEDULE, 1.0, self.ALPHA, WINDOW, weight_exponent=1)
        bundle = assemble_gains(records, self.ALPHA, 1.0, 1.0, weight_exponent=1)
        assert bundle.frac_norm_limit >= frac_norm_limit_p1(self.ALPHA, 1.0)


class TestLemmaCheck:
    # From below the smallest 1/mu (about 1e-8 at n = 4000) to where
    # exp(-omega t) underflows at a = 1.
    TIMES = np.geomspace(1e-12, 10.0, 200)

    def make_bundle(self, sys):
        # A sweep that ends at sys, so that omega is the decay rate of sys.
        return assemble_gains(run_sweep([sys.n // 2, sys.n], 1.0, 0.5, WINDOW), 0.5, 1.0, 1.0,
                              weight_exponent=2)

    @staticmethod
    def own_bundle(sys, alpha):
        """K1 and K2 from the decay rate and the windowed D of sys itself."""
        omega = growth_bound(sys)
        k1, k2, kappa = k_constants(alpha, omega, sector_bound(sys, WINDOW))
        return GainBundle(alpha=alpha, theta=THETA, k1=k1, k2=k2, kappa=kappa,
                          frac_norm_limit=math.nan, beta_m=1.0, beta_omega=omega,
                          gamma_slope=math.nan)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_bound_holds_on_log_grid(self, n):
        sys = build_heat_dirichlet(n, 1.0)
        assert frac_semigroup_excess(sys, self.make_bundle(sys),
                                     np.geomspace(1e-4, 10.0, 200)) <= 1e-9

    @settings(max_examples=40, deadline=None, database=None)
    @given(alpha=st.floats(1e-3, 0.5), n=st.integers(2, 4000))
    def test_bound_holds_over_alpha_and_n(self, alpha, n):
        sys = build_heat_dirichlet(n, 1.0)
        assert frac_semigroup_excess(sys, self.own_bundle(sys, alpha), self.TIMES) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("a", [1e4, 1e6])
    def test_bound_holds_at_large_diffusion(self, a):
        # a only rescales time, so the bound at t / a is the bound at t.  But
        # for omega > 1 the windowed D lies below the supremum max(1, 1/omega)
        # of (lambda + 1) / (lambda + omega) over lambda >= 0, and K2 with it:
        # the excess is +4.07 at a = 1e4 and +40.2 at a = 1e6.
        sys = build_heat_dirichlet(1000, a)
        assert frac_semigroup_excess(sys, self.own_bundle(sys, 0.3), self.TIMES / a) <= 1e-9

    def test_large_time_equality_branch(self):
        sys = build_heat_dirichlet(50, 1.0)
        bundle = self.make_bundle(sys)
        mu_min = bundle.beta_omega
        t = 2.0
        lhs = mu_min**0.5 * math.exp(-mu_min * t)
        assert lhs == pytest.approx(bundle.k1 * math.exp(-mu_min * t), rel=1e-8)

    def test_small_time_headroom(self):
        # max over mu of mu^alpha exp(-mu t) = (alpha/(e t))^alpha stays below K2 t^-alpha.
        t = 1e-4
        envelope = (0.5 / (math.e * t)) ** 0.5
        _, k2, _ = k_constants(0.5, REFERENCE_OMEGA, REFERENCE_D)
        assert envelope <= k2 * t**-0.5


class TestExactGainBracket:
    """The exact gain of the discrete heat pair from x0 = 0, the bound that
    every certified gamma_slope must reach."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 250, 4000])
    def test_max_norm_ends_meet(self, n, p):
        gain = (1.0 / n) ** (p / 2.0) * math.sqrt(n - 1)
        assert exact_gain_bracket(n, 1.0, p, "max") == (gain, gain)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 17, 250, 4000])
    def test_euclidean_lower_end_is_the_profile_norm(self, n, p):
        xi = np.arange(1, n) / n
        profiles = np.column_stack([1.0 - xi, xi])
        lower, upper = exact_gain_bracket(n, 1.0, p, "euclidean")
        assert lower == pytest.approx((1.0 / n) ** (p / 2.0) * np.linalg.norm(profiles, 2),
                                      rel=1e-14, abs=0)
        assert upper == exact_gain_bracket(n, 1.0, p, "max")[1]

    def test_p1_bracket_at_the_largest_default_resolution(self):
        lower, upper = exact_gain_bracket(4000, 1.0, 1, "euclidean")
        assert (round(lower, 6), round(upper, 6)) == (0.707018, 0.999875)

    @pytest.mark.parametrize("u_norm", ["max", "euclidean"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("a", [1e-3, 1.0, 7.1, 1e6])
    @pytest.mark.parametrize("n", [2, 3, 16, 250, 1000])
    def test_steady_states_of_the_dense_solve(self, n, a, p, u_norm):
        # u = (1, 1) reaches the upper end, and the steady map's norm over
        # the unit ball of U is the lower end.
        system = build_heat_dirichlet(n, a, weight_exponent=p, input_norm=u_norm)
        dense = a_matrix(system)
        lower, upper = exact_gain_bracket(n, a, p, u_norm)
        steady = -np.linalg.solve(dense, system.b_matrix @ [1.0, 1.0])
        norm = system.space.state_scale * np.linalg.norm(steady)
        assert norm == pytest.approx(upper, rel=1e-12, abs=0)
        steady_map = -np.linalg.solve(dense, system.b_matrix)
        assert system.space.op_norm(steady_map) == pytest.approx(lower, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [250, 4000])
    def test_simulate_twosided_steady_norm(self, n):
        # simulate's twosided input u = (1, 1) at p = 1, run to
        # exp(-omega t) < 1e-21.
        system = build_heat_dirichlet(n, 1.0, weight_exponent=1)
        traj = simulate(system, np.zeros(n - 1), np.array([[1.0, 1.0]]), 5.0, 0.05)
        assert traj.norms[-1] == pytest.approx(exact_gain_bracket(n, 1.0, 1, "max")[1],
                                               rel=1e-13, abs=0)

    @settings(max_examples=60, deadline=None, database=None)
    @given(a=st.floats(-3.0, 6.0).map(lambda exponent: 10.0**exponent),
           u_norm=st.sampled_from(["max", "euclidean"]),
           n0=st.integers(8, 256), count=st.integers(2, 4),
           p1_alpha=st.none() | st.floats(0.02, 0.2))
    def test_every_certified_gain_reaches_the_exact_gain(self, a, u_norm, n0, count, p1_alpha):
        # p = 2 at alpha = 1/2, which is never refused, or p = 1 at a small
        # alpha, where the K route's gamma_slope falls below 1 at large a.
        p, alpha = (2, 0.5) if p1_alpha is None else (1, p1_alpha)
        schedule = [n0 * 2**k for k in range(count)]
        records = run_sweep(schedule, a, alpha, WINDOW, weight_exponent=p, input_norm=u_norm)
        try:
            bundle = assemble_gains(records, alpha, 1.0, 1.0, weight_exponent=p)
        except LimitError:
            assert p == 1
            return
        assert bundle.gamma_slope >= exact_gain_bracket(schedule[-1], a, p, u_norm)[1]
        if p == 1:
            assert bundle.gamma_slope >= 1.0

    def test_default_gamma_slope_reaches_the_upper_end(self, tmp_path, capsys):
        cfg = RunConfig()
        assert main(["gains", "--output_dir", str(tmp_path)]) == 0
        kv = dict(line.split(" = ") for line in (tmp_path / "gains.kv").read_text().splitlines())
        _, upper = exact_gain_bracket(max(cfg.n_schedule), cfg.a, cfg.weight_exponent, cfg.u_norm)
        assert float(kv["gamma_slope"]) >= upper
