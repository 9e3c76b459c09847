import math

import numpy as np
import pytest

from issgains.fattorini import PathSpec
from issgains.gains import (
    DEFAULT_THETA,
    GainBundle,
    GrowthBound,
    SectorBound,
    StabilityError,
    assemble_gains,
    frac_control_norm,
    growth_bound,
    k_constants,
    lemma_frac_semigroup_check,
    sector_bound,
)
from issgains.numerics import gamma_fn
from issgains.systems import GridSpec, WeightedSpace, build_heat_dirichlet
from oracles import frac_control_norm_gram

REFERENCE_GB = GrowthBound(m=1.0, omega=9.8647)
REFERENCE_SB = SectorBound(d=0.9991)


class TestGrowthBound:
    def test_n3(self):
        gb = growth_bound(build_heat_dirichlet(3, 1.0))
        assert gb.m == 1.0
        assert gb.omega == pytest.approx(9.0, rel=1e-12)

    def test_large_n_approaches_pi_squared(self):
        gb = growth_bound(build_heat_dirichlet(4000, 1.0))
        assert gb.omega == pytest.approx(math.pi**2, abs=1e-3)

    def test_diffusion_scaling(self):
        omega1 = growth_bound(build_heat_dirichlet(20, 1.0)).omega
        omega2 = growth_bound(build_heat_dirichlet(20, 2.0)).omega
        assert omega2 == pytest.approx(2.0 * omega1, rel=1e-12)

    def test_omega_monotone_toward_limit(self):
        omegas = [growth_bound(build_heat_dirichlet(n, 1.0)).omega
                  for n in (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))
        assert omegas[-1] < math.pi**2


class TestSectorBound:
    def test_large_n_reference(self):
        sb = sector_bound(build_heat_dirichlet(4000, 1.0), PathSpec())
        assert sb.d == pytest.approx(0.9991, abs=1e-4)

    def test_n3_endpoint(self):
        sb = sector_bound(build_heat_dirichlet(3, 1.0), PathSpec())
        assert sb.d == pytest.approx(10001.0 / 10009.0, rel=1e-12)

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
        k1, k2, kappa = k_constants(0.5, DEFAULT_THETA, REFERENCE_GB, REFERENCE_SB)
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
            gb = GrowthBound(m=rng.uniform(1.0, 3.0), omega=rng.uniform(0.5, 50.0))
            sb = SectorBound(d=rng.uniform(0.5, 2.0))
            theta = rng.uniform(math.pi / 2 + 0.2, math.pi - 0.01)
            k1, k2, _ = k_constants(alpha, theta, gb, sb)
            assert k1 == pytest.approx(gb.m * gb.omega**alpha, rel=1e-8)
            expected_k2 = sb.d / (gamma_fn(1.0 - alpha) * abs(math.cos(theta)) * math.sin(math.pi * alpha))
            assert k2 == pytest.approx(expected_k2, rel=1e-8)

    def test_kappa_formula(self):
        alpha = 0.3
        gb = GrowthBound(m=1.0, omega=4.0)
        sb = SectorBound(d=1.0)
        k1, k2, kappa = k_constants(alpha, DEFAULT_THETA, gb, sb)
        assert kappa == pytest.approx(k1 / 4.0 + k2 * 4.0**-alpha * gamma_fn(alpha), rel=1e-12)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            k_constants(0.5, math.pi / 2, REFERENCE_GB, REFERENCE_SB)


class TestAssembleGains:
    def test_reference_chain_gamma_slope(self):
        bundle = assemble_gains(0.5, DEFAULT_THETA, REFERENCE_GB, REFERENCE_SB, math.sqrt(2.0))
        assert 0.896 <= bundle.gamma_slope <= 0.903

    def test_reported_slope_with_reference_kappa(self):
        # The rounded reference kappa times the reference fractional norm.
        assert 0.6359 * 1.4136 == pytest.approx(0.8989, abs=2e-4)

    def test_one_sided_reference_value(self):
        assert math.sqrt(2.0 / 3.0) == pytest.approx(0.8165, abs=1e-4)

    def test_bundle_invariants_recompute(self):
        bundle = assemble_gains(0.5, DEFAULT_THETA, REFERENCE_GB, REFERENCE_SB, math.sqrt(2.0),
                                mu_e=1.0, mu_p=1.0)
        k1, k2, kappa = k_constants(bundle.alpha, bundle.theta, REFERENCE_GB, REFERENCE_SB)
        assert bundle.k1 == pytest.approx(k1, abs=1e-12)
        assert bundle.k2 == pytest.approx(k2, abs=1e-12)
        assert bundle.kappa == pytest.approx(kappa, abs=1e-12)
        assert bundle.gamma_slope == pytest.approx(bundle.mu_e * bundle.kappa * bundle.frac_norm_limit,
                                                   abs=1e-12)

    def test_gain_shape(self):
        bundle = assemble_gains(0.5, DEFAULT_THETA, REFERENCE_GB, REFERENCE_SB, math.sqrt(2.0))
        assert bundle.gamma(0.0) == 0.0
        assert bundle.gamma(2.0) > bundle.gamma(1.0) > 0.0
        assert bundle.beta(1.0, 1.0) < bundle.beta(1.0, 0.5)
        assert bundle.beta(2.0, 0.5) > bundle.beta(1.0, 0.5)


class TestLemmaCheck:
    def make_bundle(self, sys):
        gb = growth_bound(sys)
        sb = sector_bound(sys, PathSpec())
        return assemble_gains(0.5, DEFAULT_THETA, gb, sb, 1.0)

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
        _, k2, _ = k_constants(0.5, DEFAULT_THETA, REFERENCE_GB, REFERENCE_SB)
        assert envelope <= k2 * t**-0.5

    def test_zero_time_rejected(self):
        sys = build_heat_dirichlet(20, 1.0)
        with pytest.raises(ValueError):
            lemma_frac_semigroup_check(sys, self.make_bundle(sys), np.array([0.0, 1.0]))
