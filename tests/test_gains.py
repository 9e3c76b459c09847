import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issgains.config import DEFAULT_THETA, LimitError
from issgains.fattorini import PathSpec
from issgains.gains import (
    LIMIT_TOL,
    GainBundle,
    StabilityError,
    assemble_gains,
    frac_control_norm,
    growth_bound,
    k_constants,
    lemma_frac_semigroup_check,
    sector_bound,
)
from issgains.sweep import SweepRecord, run_sweep
from issgains.systems import GridSpec, WeightedSpace, build_heat_dirichlet
from oracles import frac_control_norm_gram

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
        d = sector_bound(build_heat_dirichlet(4000, 1.0), PathSpec())
        assert d == pytest.approx(0.9991, abs=1e-4)

    def test_n3_endpoint(self):
        d = sector_bound(build_heat_dirichlet(3, 1.0), PathSpec())
        assert d == pytest.approx(10001.0 / 10009.0, rel=1e-12)

    def test_unit_spectral_gap_gives_one(self):
        # Synthetic check on the scan formula itself at mu_min = 1.
        grid = PathSpec().grid()
        values = (grid + 1.0) / (grid + 1.0)
        assert np.max(values) == 1.0


class TestFracControlNorm:
    def test_max_norm_is_sqrt_two(self):
        sys = build_heat_dirichlet(100, 1.0)
        assert frac_control_norm(sys, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_euclidean_norm_is_one(self):
        space = WeightedSpace(GridSpec(100), weight_exponent=2, input_norm="euclidean")
        sys = build_heat_dirichlet(100, 1.0, space)
        assert frac_control_norm(sys, 0.5) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [10, 100, 500])
    def test_gram_oracle_agreement(self, n):
        sys = build_heat_dirichlet(n, 1.0)
        spectral = frac_control_norm(sys, 0.5)
        gram = frac_control_norm_gram(sys)
        assert spectral == pytest.approx(gram, rel=1e-9)

    def test_gram_oracle_euclidean_route(self):
        space = WeightedSpace(GridSpec(64), weight_exponent=2, input_norm="euclidean")
        sys = build_heat_dirichlet(64, 1.0, space)
        assert frac_control_norm(sys, 0.5) == pytest.approx(frac_control_norm_gram(sys), rel=1e-9)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            frac_control_norm(build_heat_dirichlet(10, 1.0), 1.5)


class TestKConstants:
    def test_reference_configuration(self):
        k1, k2, kappa = k_constants(0.5, DEFAULT_THETA, REFERENCE_OMEGA, REFERENCE_D)
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
            theta = rng.uniform(math.pi / 2 + 0.2, math.pi - 0.01)
            k1, k2, _ = k_constants(alpha, theta, omega, d)
            assert k1 == pytest.approx(omega**alpha, rel=1e-8)
            expected_k2 = d / (math.gamma(1.0 - alpha) * abs(math.cos(theta)) * math.sin(math.pi * alpha))
            assert k2 == pytest.approx(expected_k2, rel=1e-8)

    def test_kappa_formula(self):
        alpha = 0.3
        k1, k2, kappa = k_constants(alpha, DEFAULT_THETA, 4.0, 1.0)
        assert kappa == pytest.approx(k1 / 4.0 + k2 * 4.0**-alpha * math.gamma(alpha), rel=1e-12)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            k_constants(0.5, math.pi / 2, REFERENCE_OMEGA, REFERENCE_D)

    def test_theta_next_to_half_pi(self):
        # The nearest admissible theta still has |cos theta| = 1.6e-16 > 0.
        theta = math.nextafter(math.pi / 2, math.pi)
        _, k2, _ = k_constants(0.5, theta, REFERENCE_OMEGA, REFERENCE_D)
        assert k2 == pytest.approx(REFERENCE_D / (math.sqrt(math.pi) * abs(math.cos(theta))),
                                   rel=1e-8)


class TestAssembleGains:
    def test_reference_chain_gamma_slope(self):
        bundle = assemble_gains(REFERENCE_RECORDS, 0.5, DEFAULT_THETA)
        assert 0.896 <= bundle.gamma_slope <= 0.903

    def test_reported_slope_with_reference_kappa(self):
        # The rounded reference kappa times the reference fractional norm.
        assert 0.6359 * 1.4136 == pytest.approx(0.8989, abs=2e-4)

    def test_one_sided_reference_value(self):
        assert math.sqrt(2.0 / 3.0) == pytest.approx(0.8165, abs=1e-4)

    def test_bundle_invariants_recompute(self):
        bundle = assemble_gains(REFERENCE_RECORDS, 0.5, DEFAULT_THETA, mu_p=1.0, mu_e=1.0)
        k1, k2, kappa = k_constants(bundle.alpha, bundle.theta, REFERENCE_OMEGA, REFERENCE_D)
        assert bundle.k1 == pytest.approx(k1, abs=1e-12)
        assert bundle.k2 == pytest.approx(k2, abs=1e-12)
        assert bundle.kappa == pytest.approx(kappa, abs=1e-12)
        assert bundle.gamma_slope == pytest.approx(bundle.mu_e * bundle.kappa * bundle.frac_norm_limit,
                                                   abs=1e-12)

    def test_gain_shape(self):
        bundle = assemble_gains(REFERENCE_RECORDS, 0.5, DEFAULT_THETA)
        assert bundle.gamma(0.0) == 0.0
        assert bundle.gamma(2.0) > bundle.gamma(1.0) > 0.0
        assert bundle.beta(1.0, 1.0) < bundle.beta(1.0, 0.5)
        assert bundle.beta(2.0, 0.5) > bundle.beta(1.0, 0.5)


    @settings(max_examples=100, deadline=None, database=None)
    @given(omegas=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=6, unique=True),
           d_values=st.lists(st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False),
                             min_size=6, max_size=6),
           norms=st.lists(st.floats(0.0, 10.0, exclude_min=True, allow_subnormal=False),
                          min_size=5, max_size=5),
           previous_norm=st.floats(0.01, 9.99),
           last_step=st.floats(-2 * LIMIT_TOL, 2 * LIMIT_TOL),
           alpha=st.floats(0.05, 0.95),
           theta=st.floats(math.pi / 2 + 0.1, DEFAULT_THETA),
           mu_p=st.floats(0.5, 2.0), mu_e=st.floats(0.5, 2.0))
    def test_limit_rules(self, omegas, d_values, norms, previous_norm, last_step,
                         alpha, theta, mu_p, mu_e):
        # Synthetic sweeps: omega_n rises, and the last step of the fractional
        # norm straddles LIMIT_TOL.
        omegas = sorted(omegas)
        count = len(omegas)
        norm_values = norms[:count - 2] + [previous_norm, previous_norm + last_step]
        records = [SweepRecord(n=2**(k + 4), omega_n=omega, d_n=d, frac_norm_n=norm)
                   for k, (omega, d, norm) in enumerate(zip(omegas, d_values, norm_values))]
        if abs(norm_values[-1] - norm_values[-2]) > LIMIT_TOL:
            with pytest.raises(LimitError, match="frac_norm_limit did not converge"):
                assemble_gains(records, alpha, theta, mu_p=mu_p, mu_e=mu_e)
            return
        bundle = assemble_gains(records, alpha, theta, mu_p=mu_p, mu_e=mu_e)
        k1, k2, kappa = k_constants(alpha, theta, omegas[-1],
                                    mu_p * mu_e * max(d_values[:count]))
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
            assemble_gains(records, 0.5, DEFAULT_THETA, mu_p=mu_p, mu_e=mu_e)

    def test_single_record_rejected(self):
        with pytest.raises(ValueError, match="at least 2 records"):
            assemble_gains(REFERENCE_RECORDS[:1], 0.5, DEFAULT_THETA)


class TestLemmaCheck:
    def make_bundle(self, sys):
        # A sweep that ends at sys, so that omega is the decay rate of sys.
        return assemble_gains(run_sweep([sys.n // 2, sys.n], 1.0, 0.5, PathSpec()), 0.5,
                              DEFAULT_THETA)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_bound_holds_on_log_grid(self, n):
        sys = build_heat_dirichlet(n, 1.0)
        report = lemma_frac_semigroup_check(sys, self.make_bundle(sys), np.geomspace(1e-4, 10.0, 200))
        assert report.verdict == "pass"

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
        _, k2, _ = k_constants(0.5, DEFAULT_THETA, REFERENCE_OMEGA, REFERENCE_D)
        assert envelope <= k2 * t**-0.5

    def test_zero_time_rejected(self):
        sys = build_heat_dirichlet(20, 1.0)
        with pytest.raises(ValueError):
            lemma_frac_semigroup_check(sys, self.make_bundle(sys), np.array([0.0, 1.0]))
