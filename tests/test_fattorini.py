import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issgains.fattorini import (
    PROBES,
    DiagnosticReport,
    consistency_diagnostic,
    estimate_mu,
    resolvent_gap,
    restrict,
    sector_diagnostic,
    sine_gap,
)
from issgains.gains import PathSpec
from issgains.numerics import apply_matrix_function
from issgains.systems import (
    WeightedSpace,
    build_heat_dirichlet,
    extend,
    function_l2_norm,
)
from oracles import (
    WINDOW,
    PreClosureSystem,
    a_matrix,
    build_preclosure_heat,
    close_system,
    PROBE_SECOND_DERIVATIVES,
    extension_norm_search,
    probe_ratio_mu,
    probe_scale_quadrature,
    resolvent_dense,
    sine_gap_decimal,
    sine_gap_quadrature,
    with_dense_eig,
)

# Draws of the sine gap's arguments: a resolution, a diffusion coefficient
# log-uniform in [1e-3, 1e6] and a log-spaced window of 8 points.
GAP_CASES = dict(n=st.integers(4, 64), log_a=st.floats(-3.0, 6.0),
                 log_low=st.floats(-6.0, 4.0), decades=st.floats(0.5, 6.0))


def gap_arguments(n, log_a, log_low, decades):
    return n, 10.0**log_a, np.geomspace(10.0**log_low, 10.0**(log_low + decades), 8)


class TestCloseSystem:
    def test_n4_control_matrix(self):
        pre = build_preclosure_heat(4, 1.0)
        closed = close_system(pre)
        expected = np.zeros((3, 2))
        expected[0, 0] = 16.0
        expected[2, 1] = 16.0
        np.testing.assert_array_equal(closed.b_matrix, expected)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", list(range(2, 65)))
    def test_matches_direct_builder_exactly(self, n, a):
        direct = build_heat_dirichlet(n, a)
        closed = close_system(build_preclosure_heat(n, a))
        assert np.array_equal(a_matrix(closed), a_matrix(direct))
        assert np.array_equal(closed.b_matrix, direct.b_matrix)

    def test_diffusion_linearity(self):
        b1 = close_system(build_preclosure_heat(8, 1.0)).b_matrix
        b2 = close_system(build_preclosure_heat(8, 2.0)).b_matrix
        np.testing.assert_array_equal(b2, 2.0 * b1)

    def test_kernel_identification(self):
        pre = build_preclosure_heat(12, 1.0)
        closed = close_system(pre)
        rng = np.random.default_rng(0)
        v = np.zeros(13)
        v[1:12] = rng.standard_normal(11)
        np.testing.assert_allclose(pre.ainit @ v, a_matrix(closed) @ (pre.restrict_r @ v),
                                   rtol=1e-12, atol=1e-12)

    def test_invalid_right_inverse(self):
        pre = build_preclosure_heat(4, 1.0)
        bad = PreClosureSystem(ainit=pre.ainit, bop=pre.bop,
                               restrict_r=pre.restrict_r,
                               bop_rinv=pre.bop_rinv + 0.1)
        with pytest.raises(ValueError, match="right inverse"):
            close_system(bad)


class TestSectorDiagnostic:
    def test_n3_endpoint_value(self):
        systems = [build_heat_dirichlet(n, 1.0) for n in (3, 6)]
        report = sector_diagnostic(systems, WINDOW)
        assert report.values["D_3"] == pytest.approx(10001.0 / 10009.0, rel=1e-12)

    def test_large_n_matches_reference_constant(self):
        systems = [build_heat_dirichlet(n, 1.0) for n in (2000, 4000)]
        report = sector_diagnostic(systems, WINDOW)
        assert report.values["D_4000"] == pytest.approx(0.9991, abs=1e-4)
        assert report.verdict == "pass"

    def test_sup_tends_to_one_from_below(self):
        systems = [build_heat_dirichlet(n, 1.0) for n in (100, 200, 400)]
        report = sector_diagnostic(systems, PathSpec(WINDOW.lambda_min, 1e8))
        for key, value in report.values.items():
            assert value < 1.0

    def test_endpoint_dominates_interior(self):
        # (lambda+1)/(lambda+mu) is monotone for mu != 1: grid extremes dominate.
        grid = np.geomspace(1e-4, 1e4, 400)
        for mu in (0.2, 9.0, 150.0):
            values = (grid + 1.0) / (grid + mu)
            assert np.max(values) == pytest.approx(max(values[0], values[-1]))


class TestResolventGap:
    def test_second_order_refinement(self):
        report = resolvent_gap(WINDOW, 60, 1.0)
        assert report.verdict == "pass"
        assert 3.0 <= report.values["ratio"] <= 5.0

    @settings(max_examples=40, deadline=None, database=None)
    @given(**GAP_CASES)
    def test_closed_form_matches_decimal(self, n, log_a, log_low, decades):
        n, a, grid = gap_arguments(n, log_a, log_low, decades)
        exact = np.array([float(g) for g in sine_gap_decimal(n, a, grid)])
        np.testing.assert_allclose(sine_gap(n, a, grid), exact, rtol=1e-14, atol=0)

    @settings(max_examples=40, deadline=None, database=None)
    @given(**GAP_CASES)
    def test_closed_form_matches_quadrature(self, n, log_a, log_low, decades):
        # The quadrature route rounds p and q apart, which costs it up to
        # about 20 eps/x^2 relative (sine_gap's docstring): the tolerance is
        # 1e-12, or twice that cost where it is larger, from n = 22.
        n, a, grid = gap_arguments(n, log_a, log_low, decades)
        rtol = max(1e-12, 40.0 * 2.0**-53 / (math.pi / (2 * n)) ** 2)
        np.testing.assert_allclose(sine_gap(n, a, grid), sine_gap_quadrature(n, a, grid),
                                   rtol=rtol, atol=0)


PROBE_FUNCTIONS = [f for _, f, _ in PROBES]


def random_nonuniform_system(n, seed):
    """Strictly diagonally dominant, so Hurwitz; its eigenpairs come from the
    dense oracle, since the library has the uniform closed form only."""
    rng = np.random.default_rng(seed)
    c = float(n * n)
    b = np.zeros((n - 1, 2))
    b[0, 0] = b[-1, 1] = c
    return with_dense_eig(WeightedSpace(n), -c * rng.uniform(3.1, 4.0, n - 1),
                          c * rng.uniform(0.5, 1.5, n - 2), b)


def resolvent(sys, shift, rhs):
    """(shift I - A)^{-1} rhs from the system's own decomposition."""
    return apply_matrix_function(sys.eigendecomposition(), lambda lam: 1.0 / (shift - lam), rhs)


class TestResolventRoute:
    @pytest.mark.parametrize("n, a, k", [(16, 1.0, 1), (32, 1.0, 3), (64, 0.25, 5), (250, 2.0, 1)])
    def test_sine_probe_closed_form(self, n, a, k):
        # sin(k pi xi) sampled is an eigenvector of A with eigenvalue -4an^2 sin^2(k pi/2n).
        shifts = np.geomspace(1e-4, 1e4, 400)
        probe = np.sin(k * np.pi * WeightedSpace(n).nodes())
        system = build_heat_dirichlet(n, a)
        mu = 4.0 * a * n**2 * np.sin(k * np.pi / (2 * n)) ** 2
        for shift in shifts:
            np.testing.assert_allclose(resolvent(system, shift, probe), probe / (shift + mu),
                                       rtol=1e-13, atol=0)

    def test_nonuniform_system_matches_dense_solve(self):
        sys = random_nonuniform_system(24, seed=7)
        rhs = np.random.default_rng(8).standard_normal(23)
        for shift in (0.0, 1e-4, 3.0, 1e4):
            np.testing.assert_allclose(resolvent(sys, shift, rhs), resolvent_dense(sys, shift, rhs),
                                       rtol=1e-12, atol=0)


class TestConsistency:
    def test_bounded_on_smooth_probes(self):
        systems = [build_heat_dirichlet(n, 1.0) for n in (16, 32, 64, 128)]
        report = consistency_diagnostic(systems)
        assert report.verdict == "pass"

    def test_sine_probe_strong_norm_level(self):
        # E A P sin(pi xi) converges to -pi^2 sin(pi xi), whose L2 norm is pi^2/sqrt(2).
        systems = [build_heat_dirichlet(256, 1.0)]
        report = consistency_diagnostic(systems)
        f_norm = 1.0 / math.sqrt(2.0)
        f2_norm = math.pi**2 / math.sqrt(2.0)
        expected_ratio = f2_norm / (f_norm + f2_norm)
        assert report.values["strong.sin_pi_256"] == pytest.approx(expected_ratio, rel=1e-3)

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_quadratic_probe_is_stencil_exact(self, n):
        # Second difference of xi(1-xi) is exactly -2 at every interior node.
        sys = build_heat_dirichlet(n, 1.0)
        from issgains.fattorini import _apply_tridiag

        samples = restrict(lambda x: x * (1 - x), sys.space)
        image = _apply_tridiag(sys, samples)
        np.testing.assert_allclose(image, -2.0, rtol=1e-9)

    def test_keys_are_the_strong_ratios(self):
        # One strong ratio per (n, probe), in that order, and nothing else.
        report = consistency_diagnostic([build_heat_dirichlet(n, 1.0) for n in (8, 16)])
        assert list(report.values) == [f"strong.{name}_{n}" for n in (8, 16)
                                       for name, _, _ in PROBES]

    def test_probes_vanish_at_the_ends_with_positive_scales(self):
        # What makes every ratio finite and positive, and the verdict's
        # max/min defined.
        for name, f, scale in PROBES:
            assert abs(f(0.0)) <= 1e-12 and abs(f(1.0)) <= 1e-12, name
            assert scale > 0.0, name


class TestEstimateMu:
    def test_sine_ratio_near_one(self):
        mu_p = probe_ratio_mu([lambda x: np.sin(np.pi * x)], [512, 1024])
        assert mu_p == pytest.approx(1.0, abs=5e-3)

    def test_hat_coefficient_extension_norm(self):
        # ||E e1||_L2 = sqrt(2 dx / 3) against ||e1|| = sqrt(dx).
        space = WeightedSpace(10)
        x = np.zeros(9)
        x[0] = 1.0
        norm = function_l2_norm(extend(x, space), panels=2050)
        assert norm == pytest.approx(math.sqrt(2.0 * space.dx / 3.0), rel=1e-6)

    def test_bounds_dominate_observations(self):
        mu_p, mu_e = estimate_mu([64, 128])
        assert mu_p == 1.0
        # The sine probe is sampled isometrically: its ratio is 1 up to rounding.
        assert probe_ratio_mu(PROBE_FUNCTIONS, [64, 128]) <= mu_p + 4 * 2.0**-52
        assert 0.5 < mu_e <= 1.01

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 2048), seed=st.integers(0, 2**32 - 1))
    def test_sampling_is_isometric_on_sine_modes(self, n, seed):
        # By discrete orthogonality, the sampled sum of c_k sin(k pi xi) over
        # 0 < k < n has p = 1 norm sqrt(sum c_k^2 / 2), its L2 norm: mu_p = 1.
        c = np.random.default_rng(seed).standard_normal(n - 1)
        k = np.arange(1, n)
        space = WeightedSpace(n, 1)
        sampled = restrict(lambda xi: c @ np.sin(np.pi * np.multiply.outer(k, xi)), space)
        expected = math.sqrt(float(np.sum(c * c)) / 2.0)
        norm = space.state_scale * np.linalg.norm(sampled)
        assert norm == pytest.approx(expected, rel=1e-12, abs=0)

    def test_narrow_hat_exceeds_one(self):
        # mu_p = 1 holds on the sine modes below n only: point sampling is
        # unbounded on L2, and a narrow hat sampled at its peak shows it.
        hat = lambda x: np.maximum(0.0, 1.0 - 1000.0 * np.abs(x - 0.5))
        spaces = [WeightedSpace(n, 1) for n in (250, 500)]
        sampled = max(space.state_scale * np.linalg.norm(restrict(hat, space)) for space in spaces)
        assert f"{sampled / function_l2_norm(hat):.10g}" == "2.449505511"

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            probe_ratio_mu([], [16])
        with pytest.raises(ValueError):
            estimate_mu([])

    def test_calls_neither_sampling_nor_quadrature(self, monkeypatch):
        import issgains.fattorini as fattorini

        def refuse(*args, **kwargs):
            raise AssertionError("estimate_mu sampled or integrated")

        monkeypatch.setattr(fattorini, "restrict", refuse)
        monkeypatch.setattr(fattorini, "function_l2_norm", refuse)
        assert estimate_mu([16, 32]) == (1.0, math.sqrt((2.0 + math.cos(math.pi / 32)) / 3.0))

    def test_probe_ratio_prints_one_where_check_prints_mu_p(self):
        # check prints mu_p over its small resolutions, each n <= 256 or the
        # first two of the schedule; at each such n, and at larger ones, the
        # probe ratio estimate prints the exact value's digits.
        for n in [*range(2, 300), 500, 1000, 2000, 4000, 10**4]:
            ratio = probe_ratio_mu(PROBE_FUNCTIONS, [n])
            assert (f"{ratio:.10g}", f"{ratio:.6f}") == ("1", "1.000000"), n

    @pytest.mark.parametrize("name, f, scale", PROBES, ids=[name for name, _, _ in PROBES])
    def test_probe_scale_is_the_quadrature(self, name, f, scale):
        quadrature = probe_scale_quadrature(f, PROBE_SECOND_DERIVATIVES[name])
        assert abs(quadrature - scale) <= 4 * math.ulp(scale)

    @pytest.mark.parametrize("n", [8, 64, 500])
    def test_extension_norm_dominates_random_search(self, n):
        _, mu_e = estimate_mu([n])
        assert mu_e >= extension_norm_search(n)

    @pytest.mark.parametrize("n", [8, 64, 500])
    def test_extension_norm_is_the_first_sine_mode(self, n):
        # The first sine mode attains the norm; a larger n raises it.
        space = WeightedSpace(n, 1)
        mode = restrict(lambda xi: np.sin(np.pi * xi), space)
        norm = space.state_scale * np.linalg.norm(mode)
        ratio = function_l2_norm(extend(mode, space), panels=n) / norm
        assert estimate_mu([n])[1] == pytest.approx(ratio, rel=1e-14, abs=0)
        assert estimate_mu([n, n // 2])[1] == estimate_mu([n])[1]


class TestDiagnosticReport:
    def test_serialization_roundtrip_keys(self):
        report = DiagnosticReport(name="demo", values={"v_1": 1.25}, verdict="warn", detail="d")
        assert report.as_text() == "[WARN] demo\n  d\n  demo.v_1 = 1.25"
