import math

import numpy as np
import pytest

from issgains.fattorini import (
    DiagnosticReport,
    PathSpec,
    _resolvent,
    close_system,
    consistency_diagnostic,
    estimate_mu,
    resolvent_gap,
    right_inverse_gap,
    sector_diagnostic,
)
from issgains.systems import (
    ClosedControlSystem,
    GridSpec,
    PreClosureSystem,
    WeightedSpace,
    build_heat_dirichlet,
    build_preclosure_heat,
    function_l2_norm,
    restrict,
    weighted_state_norm,
)
from oracles import resolvent_dense


def space_for(n, p=2):
    return WeightedSpace(GridSpec(n), weight_exponent=p)


class TestCloseSystem:
    def test_n4_control_matrix(self):
        pre = build_preclosure_heat(4, 1.0)
        closed = close_system(pre, space_for(4))
        expected = np.zeros((3, 2))
        expected[0, 0] = 16.0
        expected[2, 1] = 16.0
        np.testing.assert_array_equal(closed.b_matrix, expected)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", list(range(2, 65)))
    def test_matches_direct_builder_exactly(self, n, a):
        direct = build_heat_dirichlet(n, a)
        closed = close_system(build_preclosure_heat(n, a), direct.space)
        assert np.array_equal(closed.a_matrix, direct.a_matrix)
        assert np.array_equal(closed.b_matrix, direct.b_matrix)

    def test_diffusion_linearity(self):
        b1 = close_system(build_preclosure_heat(8, 1.0), space_for(8)).b_matrix
        b2 = close_system(build_preclosure_heat(8, 2.0), space_for(8)).b_matrix
        np.testing.assert_array_equal(b2, 2.0 * b1)

    def test_kernel_identification(self):
        pre = build_preclosure_heat(12, 1.0)
        closed = close_system(pre, space_for(12))
        rng = np.random.default_rng(0)
        v = np.zeros(13)
        v[1:12] = rng.standard_normal(11)
        np.testing.assert_allclose(pre.ainit @ v, closed.a_matrix @ (pre.restrict_r @ v),
                                   rtol=1e-12, atol=1e-12)

    def test_invalid_right_inverse(self):
        pre = build_preclosure_heat(4, 1.0)
        bad = PreClosureSystem(ainit=pre.ainit, bop=pre.bop,
                               restrict_r=pre.restrict_r,
                               bop_rinv=pre.bop_rinv + 0.1, diffusion=pre.diffusion)
        with pytest.raises(ValueError, match="right inverse"):
            close_system(bad, space_for(4))


class TestSectorDiagnostic:
    def test_n3_endpoint_value(self):
        systems = [build_heat_dirichlet(n, 1.0) for n in (3, 6)]
        report = sector_diagnostic(systems, PathSpec())
        assert report.values["D_3"] == pytest.approx(10001.0 / 10009.0, rel=1e-12)

    def test_large_n_matches_reference_constant(self):
        systems = [build_heat_dirichlet(n, 1.0) for n in (2000, 4000)]
        report = sector_diagnostic(systems, PathSpec())
        assert report.values["D_4000"] == pytest.approx(0.9991, abs=1e-4)
        assert report.verdict == "pass"

    def test_sup_tends_to_one_from_below(self):
        systems = [build_heat_dirichlet(n, 1.0) for n in (100, 200, 400)]
        report = sector_diagnostic(systems, PathSpec(lambda_max=1e8))
        for key, value in report.values.items():
            assert value < 1.0

    def test_endpoint_dominates_interior(self):
        # (lambda+1)/(lambda+mu) is monotone for mu != 1: grid extremes dominate.
        grid = PathSpec().grid()
        for mu in (0.2, 9.0, 150.0):
            values = (grid + 1.0) / (grid + mu)
            assert np.max(values) == pytest.approx(max(values[0], values[-1]))

    def test_requires_two_systems(self):
        with pytest.raises(ValueError):
            sector_diagnostic([build_heat_dirichlet(4, 1.0)], PathSpec())


class TestResolventGap:
    def test_second_order_refinement(self):
        report = resolvent_gap(16, 32, PathSpec(count=60), probe_modes=(1,))
        assert report.verdict == "pass"
        assert 3.0 <= report.values["ratio"] <= 5.0

    def test_requires_doubling(self):
        with pytest.raises(ValueError):
            resolvent_gap(16, 24, PathSpec(), probe_modes=(1,))


PROBES = [
    ("sin_pi", lambda x: np.sin(np.pi * x), lambda x: -np.pi**2 * np.sin(np.pi * x)),
    ("parabola", lambda x: x * (1 - x), lambda x: -2.0),
]


def random_nonuniform_system(n, seed):
    """Strictly diagonally dominant, so Hurwitz; its eigenpairs come from LAPACK."""
    rng = np.random.default_rng(seed)
    c = float(n * n)
    b = np.zeros((n - 1, 2))
    b[0, 0] = b[-1, 1] = c
    return ClosedControlSystem(space=space_for(n), a_diag=-c * rng.uniform(3.1, 4.0, n - 1),
                               a_offdiag=c * rng.uniform(0.5, 1.5, n - 2),
                               b_matrix=b, diffusion=1.0)


class TestResolventRoute:
    @pytest.mark.parametrize("n, a, k", [(16, 1.0, 1), (32, 1.0, 3), (64, 0.25, 5), (250, 2.0, 1)])
    def test_sine_probe_closed_form(self, n, a, k):
        # sin(k pi xi) sampled is an eigenvector of A with eigenvalue -4an^2 sin^2(k pi/2n).
        shifts = PathSpec().grid()
        probe = np.sin(k * np.pi * GridSpec(n).nodes())
        solutions = _resolvent(build_heat_dirichlet(n, a), shifts, probe)
        mu = 4.0 * a * n**2 * np.sin(k * np.pi / (2 * n)) ** 2
        np.testing.assert_allclose(solutions, probe[:, None] / (shifts + mu), rtol=1e-13, atol=0)

    def test_nonuniform_system_matches_dense_solve(self):
        sys = random_nonuniform_system(24, seed=7)
        rhs = np.random.default_rng(8).standard_normal(23)
        shifts = np.array([0.0, 1e-4, 3.0, 1e4])
        solutions = _resolvent(sys, shifts, rhs)
        for j, shift in enumerate(shifts):
            np.testing.assert_allclose(solutions[:, j], resolvent_dense(sys, shift, rhs),
                                       rtol=1e-12, atol=0)

    def test_nonuniform_consistency_round_trip(self):
        n = 24
        sys = random_nonuniform_system(n, seed=9)
        report = consistency_diagnostic([sys], PROBES)
        p1 = WeightedSpace(sys.space.grid, weight_exponent=1)
        for name, f, _ in PROBES:
            av = sys.a_matrix @ restrict(f, sys.space.grid)
            expected = weighted_state_norm(resolvent_dense(sys, 0.0, -av), p1) / function_l2_norm(f)
            assert report.values[f"weak.{name}_{n}"] == pytest.approx(expected, rel=1e-12)


class TestConsistency:
    def test_bounded_on_smooth_probes(self):
        systems = [build_heat_dirichlet(n, 1.0) for n in (16, 32, 64, 128)]
        report = consistency_diagnostic(systems, PROBES)
        assert report.verdict == "pass"

    def test_sine_probe_strong_norm_level(self):
        # E A P sin(pi xi) converges to -pi^2 sin(pi xi), whose L2 norm is pi^2/sqrt(2).
        systems = [build_heat_dirichlet(256, 1.0)]
        report = consistency_diagnostic(systems, PROBES[:1])
        f_norm = 1.0 / math.sqrt(2.0)
        f2_norm = math.pi**2 / math.sqrt(2.0)
        expected_ratio = f2_norm / (f_norm + f2_norm)
        assert report.values["strong.sin_pi_256"] == pytest.approx(expected_ratio, rel=1e-3)

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_quadratic_probe_is_stencil_exact(self, n):
        # Second difference of xi(1-xi) is exactly -2 at every interior node.
        sys = build_heat_dirichlet(n, 1.0)
        from issgains.fattorini import _apply_tridiag
        from issgains.systems import restrict

        samples = restrict(lambda x: x * (1 - x), sys.space.grid)
        image = _apply_tridiag(sys, samples)
        np.testing.assert_allclose(image, -2.0, rtol=1e-9)

    def test_rejects_probe_with_boundary_values(self):
        systems = [build_heat_dirichlet(16, 1.0)]
        bad = [("cos", lambda x: np.cos(np.pi * x), lambda x: -np.pi**2 * np.cos(np.pi * x))]
        with pytest.raises(ValueError, match="vanish"):
            consistency_diagnostic(systems, bad)


class TestRightInverse:
    def test_exact_zeros_for_heat(self):
        pres = [build_preclosure_heat(n, 1.0) for n in (2, 10, 32)]
        report = right_inverse_gap(pres)
        assert report.verdict == "pass"
        for value in report.values.values():
            assert value <= 1e-13

    def test_perturbed_right_inverse_warns(self):
        pre = build_preclosure_heat(10, 1.0)
        rinv = pre.bop_rinv.copy()
        rinv[5, 0] += 0.1  # interior perturbation keeps the trace intact
        bad = PreClosureSystem(ainit=pre.ainit, bop=pre.bop,
                               restrict_r=pre.restrict_r, bop_rinv=rinv,
                               diffusion=pre.diffusion)
        report = right_inverse_gap([bad])
        assert report.verdict == "warn"
        assert report.values["interp_gap_10"] > 0.0


class TestEstimateMu:
    def test_sine_ratio_near_one(self):
        mu_p, _ = estimate_mu([lambda x: np.sin(np.pi * x)], [512, 1024])
        assert mu_p == pytest.approx(1.0, abs=5e-3)

    def test_hat_coefficient_extension_norm(self):
        # ||E e1||_L2 = sqrt(2 dx / 3) against ||e1|| = sqrt(dx).
        from issgains.systems import GridSpec, extend, function_l2_norm

        grid = GridSpec(10)
        x = np.zeros(9)
        x[0] = 1.0
        norm = function_l2_norm(extend(x, grid), panels=2050)
        assert norm == pytest.approx(math.sqrt(2.0 * grid.dx / 3.0), rel=1e-6)

    def test_bounds_dominate_observations(self):
        samples = [lambda x: np.sin(np.pi * x), lambda x: x * (1 - x)]
        mu_p, mu_e = estimate_mu(samples, [64, 128], seed=2)
        assert mu_p > 0.9
        assert 0.5 < mu_e <= 1.01

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            estimate_mu([], [16])


class TestDiagnosticReport:
    def test_pass_requires_values(self):
        with pytest.raises(ValueError):
            DiagnosticReport(name="x", values={}, verdict="pass", detail="")

    def test_serialization_roundtrip_keys(self):
        report = DiagnosticReport(name="demo", values={"v_1": 1.25}, verdict="warn", detail="d")
        assert "demo.v_1 = 1.25" in report.as_kv()
        assert "[WARN] demo" in report.as_text()
