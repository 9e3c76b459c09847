import math

import numpy as np
import pytest

from issgains.systems import (
    GridSpec,
    WeightedSpace,
    analytic_heat_state,
    build_heat_dirichlet,
    build_preclosure_heat,
    extend,
    function_l2_norm,
    panels_for,
    restrict,
    weighted_state_norm,
)


class TestGridSpec:
    def test_basic(self):
        g = GridSpec(4)
        assert g.dx == 0.25
        assert g.interior_nodes == 3
        np.testing.assert_allclose(g.nodes(), [0.25, 0.5, 0.75])

    def test_dx_times_n_is_length(self):
        for n in (2, 3, 7, 100, 4000):
            g = GridSpec(n)
            assert g.dx * n == pytest.approx(1.0, abs=np.finfo(float).eps)

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            GridSpec(1)


class TestHeatBuilder:
    def test_n2(self):
        s = build_heat_dirichlet(2, 1.0)
        np.testing.assert_array_equal(s.a_matrix, [[-8.0]])
        np.testing.assert_array_equal(s.b_matrix, [[4.0, 4.0]])

    def test_n3(self):
        s = build_heat_dirichlet(3, 1.0)
        np.testing.assert_array_equal(s.a_matrix, 9.0 * np.array([[-2.0, 1.0], [1.0, -2.0]]))
        np.testing.assert_array_equal(s.b_matrix, 9.0 * np.eye(2))

    def test_diffusion_linearity(self):
        s1 = build_heat_dirichlet(3, 1.0)
        s2 = build_heat_dirichlet(3, 2.0)
        np.testing.assert_array_equal(s2.a_matrix, 2.0 * s1.a_matrix)
        np.testing.assert_array_equal(s2.b_matrix, 2.0 * s1.b_matrix)

    @pytest.mark.parametrize("n", [2, 5, 16, 100])
    def test_structure_invariants(self, n):
        a = 1.3
        s = build_heat_dirichlet(n, a)
        c = a * n * n
        m = s.a_matrix
        assert np.all(np.diag(m) == -2.0 * c)
        if n > 2:
            assert np.all(np.diag(m, 1) == c)
        nz = list(zip(*np.nonzero(s.b_matrix)))
        assert nz == [(0, 0), (n - 2, 1)]
        assert s.b_matrix[0, 0] == c and s.b_matrix[n - 2, 1] == c

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_hurwitz_with_exact_margin(self, n):
        s = build_heat_dirichlet(n, 1.0)
        top = np.max(np.linalg.eigvalsh(s.a_matrix))
        assert top == pytest.approx(-4.0 * n**2 * math.sin(math.pi / (2 * n)) ** 2, rel=1e-10)
        assert top < 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_heat_dirichlet(1, 1.0)
        with pytest.raises(ValueError):
            build_heat_dirichlet(4, 0.0)


class TestPreClosure:
    def test_n2_right_inverse(self):
        pre = build_preclosure_heat(2, 1.0)
        np.testing.assert_array_equal(pre.bop_rinv, np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
        np.testing.assert_array_equal(pre.bop @ pre.bop_rinv, np.eye(2))

    @pytest.mark.parametrize("n", list(range(2, 65)))
    def test_right_inverse_exact(self, n):
        pre = build_preclosure_heat(n, 1.0)
        assert np.array_equal(pre.bop @ pre.bop_rinv, np.eye(2))

    @pytest.mark.parametrize("n", [2, 3, 10, 33])
    def test_stencil_annihilates_linear_profiles(self, n):
        # Zero up to roundoff in the node fractions k/n.
        pre = build_preclosure_heat(n, 1.0)
        scale = np.max(np.abs(pre.ainit))
        assert np.max(np.abs(pre.ainit @ pre.bop_rinv)) <= 1e-14 * scale

    def test_descriptor_extracts_interior(self):
        pre = build_preclosure_heat(3, 1.0)
        v = np.array([0.0, 1.5, -2.5, 0.0])
        np.testing.assert_array_equal(pre.restrict_r @ v, [1.5, -2.5])


class TestNorms:
    def test_zero(self):
        space = WeightedSpace(GridSpec(10), weight_exponent=1)
        assert weighted_state_norm(np.zeros(9), space) == 0.0

    def test_ones_riemann_weight(self):
        space = WeightedSpace(GridSpec(100), weight_exponent=1)
        assert weighted_state_norm(np.ones(99), space) == pytest.approx(math.sqrt(0.01 * 99))

    def test_sine_samples_approach_l2_norm(self):
        grid = GridSpec(1000)
        space = WeightedSpace(grid, weight_exponent=1)
        x = restrict(lambda xi: np.sin(np.pi * xi), grid)
        assert weighted_state_norm(x, space) == pytest.approx(1.0 / math.sqrt(2.0), abs=2e-3)

    def test_length_mismatch(self):
        space = WeightedSpace(GridSpec(10))
        with pytest.raises(ValueError):
            weighted_state_norm(np.zeros(5), space)

    def test_sine_samples_match_l2_norm_exactly(self):
        # The midpoint-free Riemann sum integrates products of the discrete
        # sine modes exactly, so the sampled norm has no truncation error.
        for n in (16, 128, 1024):
            grid = GridSpec(n)
            space = WeightedSpace(grid, weight_exponent=1)
            f = lambda xi: np.sin(np.pi * xi) + 0.3 * np.sin(2 * np.pi * xi)
            expected = math.sqrt((1.0 + 0.09) / 2.0)
            assert weighted_state_norm(restrict(f, grid), space) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("norm, expected", [("max", [2.0, 0.0, 4.0]),
                                                ("euclidean", [math.sqrt(5.0), 0.0, 5.0])])
    def test_input_sample_norm_by_rows(self, norm, expected):
        space = WeightedSpace(GridSpec(4), input_norm=norm)
        samples = np.array([[1.0, -2.0], [0.0, 0.0], [-3.0, 4.0]])
        norms = space.input_sample_norm(samples)
        assert norms.shape == (3,)
        np.testing.assert_allclose(norms, expected, rtol=1e-15)
        for row, value in zip(samples, norms):
            scalar = space.input_sample_norm(row)
            assert isinstance(scalar, float) and scalar == value

    def test_norm_consistency_improves_with_n(self):
        f = lambda xi: xi * (1.0 - xi)
        target = math.sqrt(1.0 / 30.0)
        errors = []
        for n in (16, 32, 64, 128, 256, 512, 1024):
            grid = GridSpec(n)
            space = WeightedSpace(grid, weight_exponent=1)
            errors.append(abs(weighted_state_norm(restrict(f, grid), space) - target))
        assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))


class TestQuadratureRule:
    @pytest.mark.parametrize("panels", [2048, 2050, 2112])
    def test_l2_norm_equals_per_node_loop(self, panels):
        # Reference: one evaluation and one sum per Gauss node, in node order.
        f = lambda xi: xi * (1.0 - xi) + np.interp(xi, [0.0, 0.3, 1.0], [0.0, 1.0, 0.0])
        nodes, weights = np.polynomial.legendre.leggauss(4)
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        total = 0.0
        for node, w in zip(nodes, weights):
            vals = f(mid + half * node)
            total += w * float(np.sum(vals * vals))
        assert function_l2_norm(f, panels=panels) == float(np.sqrt(total * half))

    @pytest.mark.parametrize("minimum", [2048, 4096])
    def test_panels_for_is_next_multiple(self, minimum):
        for n in [*range(2, 300), 2047, 2048, 2049, 4095, 4096, 4097, 5000]:
            panels = minimum
            while panels % n:
                panels += 1
            assert panels_for(n, minimum) == panels


class TestRestrictExtend:
    def test_restrict_sine(self):
        x = restrict(lambda xi: np.sin(np.pi * xi), GridSpec(4))
        np.testing.assert_allclose(x, [math.sqrt(0.5), 1.0, math.sqrt(0.5)], rtol=1e-15)

    def test_hat_function_values(self):
        f = extend(np.array([1.0, 0.0, 0.0]), GridSpec(4))
        assert f(0.25) == pytest.approx(1.0)
        assert f(0.5) == pytest.approx(0.0)
        assert f(0.0) == 0.0
        assert f(1.0) == 0.0

    def test_restrict_after_extend_is_identity(self):
        rng = np.random.default_rng(5)
        grid = GridSpec(10)
        x = rng.standard_normal(9)
        back = restrict(extend(x, grid), grid)
        np.testing.assert_array_equal(back, x)

    def test_interpolation_error_second_order(self):
        f = lambda xi: np.sin(np.pi * xi)
        gaps = []
        for n in (16, 32, 64, 128, 256, 512, 1024):
            grid = GridSpec(n)
            lifted = extend(restrict(f, grid), grid)
            panels = 2048 if 2048 % n == 0 else 2048 * n
            gaps.append(function_l2_norm(lambda xi: lifted(xi) - np.sin(np.pi * xi),
                                         panels=min(panels, 8192)))
        for g0, g1 in zip(gaps, gaps[1:]):
            assert 3.5 <= g0 / g1 <= 4.5


class TestAnalyticState:
    def test_initial_condition(self):
        f = analytic_heat_state([(1, 1.0)], 1.0, 0.0)
        assert f(0.5) == pytest.approx(1.0)

    def test_decayed_value(self):
        f = analytic_heat_state([(1, 1.0)], 1.0, 0.1)
        assert f(0.5) == pytest.approx(0.372708, abs=1e-6)

    @pytest.mark.parametrize("t", [0.0, 0.01, 0.1])
    def test_second_mode_norm_decay(self, t):
        f = analytic_heat_state([(2, 1.0)], 1.0, t)
        expected = math.exp(-4.0 * math.pi**2 * t) / math.sqrt(2.0)
        assert function_l2_norm(f) == pytest.approx(expected, rel=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            analytic_heat_state([(1, 1.0)], 1.0, -0.1)
