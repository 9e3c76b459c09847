import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issgains import systems
from issgains.fattorini import restrict
from issgains.systems import WeightedSpace, build_heat_dirichlet, extend, function_l2_norm
from oracles import a_matrix, analytic_heat_state, build_preclosure_heat, max_norm_corners


class TestGridSpec:
    """The uniform grid of [0, 1] that a WeightedSpace describes."""

    def test_basic(self):
        g = WeightedSpace(4)
        assert g.dx == 0.25
        assert g.interior_nodes == 3
        np.testing.assert_allclose(g.nodes(), [0.25, 0.5, 0.75])

    def test_dx_times_n_is_length(self):
        for n in (2, 3, 7, 100, 4000):
            g = WeightedSpace(n)
            assert g.dx * n == pytest.approx(1.0, abs=np.finfo(float).eps)

    def test_too_coarse(self):
        with pytest.raises(ValueError, match="grid needs at least 2 intervals, got n = 1"):
            WeightedSpace(1)


class TestHeatBuilder:
    def test_n2(self):
        s = build_heat_dirichlet(2, 1.0)
        np.testing.assert_array_equal(a_matrix(s), [[-8.0]])
        np.testing.assert_array_equal(s.b_matrix, [[4.0, 4.0]])

    def test_n3(self):
        s = build_heat_dirichlet(3, 1.0)
        np.testing.assert_array_equal(a_matrix(s), 9.0 * np.array([[-2.0, 1.0], [1.0, -2.0]]))
        np.testing.assert_array_equal(s.b_matrix, 9.0 * np.eye(2))

    def test_diffusion_linearity(self):
        s1 = build_heat_dirichlet(3, 1.0)
        s2 = build_heat_dirichlet(3, 2.0)
        np.testing.assert_array_equal(a_matrix(s2), 2.0 * a_matrix(s1))
        np.testing.assert_array_equal(s2.b_matrix, 2.0 * s1.b_matrix)

    @pytest.mark.parametrize("n", [2, 5, 16, 100])
    def test_structure_invariants(self, n):
        a = 1.3
        s = build_heat_dirichlet(n, a)
        c = a * n * n
        m = a_matrix(s)
        assert np.all(np.diag(m) == -2.0 * c)
        if n > 2:
            assert np.all(np.diag(m, 1) == c)
        nz = list(zip(*np.nonzero(s.b_matrix)))
        assert nz == [(0, 0), (n - 2, 1)]
        assert s.b_matrix[0, 0] == c and s.b_matrix[n - 2, 1] == c

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_hurwitz_with_exact_margin(self, n):
        s = build_heat_dirichlet(n, 1.0)
        top = np.max(np.linalg.eigvalsh(a_matrix(s)))
        assert top == pytest.approx(-4.0 * n**2 * math.sin(math.pi / (2 * n)) ** 2, rel=1e-10)
        assert top < 0

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(2, 64), log_a=st.floats(-100.0, 100.0))
    def test_stencil_annihilates_linear_profiles(self, n, log_a):
        # Fattorini's boundary right-inverse condition: [b0 | A | b1] maps the
        # profiles 1 - xi and xi at the nodes k/n to zero, up to rounding on
        # entries of size 2 a n^2, at every diffusion of config.A_RANGE.  Over
        # 150000 random draws the largest image was 4.4e-16 a n^2.
        a = 10.0**log_a
        s = build_heat_dirichlet(n, a)
        k = np.arange(n + 1, dtype=float)
        profiles = np.column_stack([(n - k) / n, k / n])
        stencil = np.column_stack([s.b_matrix[:, 0], a_matrix(s), s.b_matrix[:, 1]])
        assert np.max(np.abs(stencil @ profiles)) <= 1e-15 * a * n * n

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
        space = WeightedSpace(10, weight_exponent=1)
        assert space.state_scale * np.linalg.norm(np.zeros(9)) == 0.0

    def test_ones_riemann_weight(self):
        space = WeightedSpace(100, weight_exponent=1)
        norm = space.state_scale * np.linalg.norm(np.ones(99))
        assert norm == pytest.approx(math.sqrt(0.01 * 99))

    def test_sine_samples_approach_l2_norm(self):
        space = WeightedSpace(1000, weight_exponent=1)
        x = restrict(lambda xi: np.sin(np.pi * xi), space)
        norm = space.state_scale * np.linalg.norm(x)
        assert norm == pytest.approx(1.0 / math.sqrt(2.0), abs=2e-3)

    def test_sine_samples_match_l2_norm_exactly(self):
        # The midpoint-free Riemann sum integrates products of the discrete
        # sine modes exactly, so the sampled norm has no truncation error.
        for n in (16, 128, 1024):
            space = WeightedSpace(n, weight_exponent=1)
            f = lambda xi: np.sin(np.pi * xi) + 0.3 * np.sin(2 * np.pi * xi)
            expected = math.sqrt((1.0 + 0.09) / 2.0)
            norm = space.state_scale * np.linalg.norm(restrict(f, space))
            assert norm == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("norm, expected", [("max", [2.0, 0.0, 4.0]),
                                                ("euclidean", [math.sqrt(5.0), 0.0, 5.0])])
    def test_input_sample_norm_by_rows(self, norm, expected):
        space = WeightedSpace(4, input_norm=norm)
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
            space = WeightedSpace(n, weight_exponent=1)
            errors.append(abs(space.state_scale * np.linalg.norm(restrict(f, space)) - target))
        assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))


class TestOpNorm:
    """WeightedSpace.op_norm, the norm of u -> m u from U into the states."""

    @staticmethod
    def half(input_norm):
        # dx = 1/4 and p = 1: state_scale is 0.5 exactly.
        return WeightedSpace(4, 1, input_norm)

    def test_identity_euclidean(self):
        assert self.half("euclidean").op_norm(np.eye(2)) == pytest.approx(0.5)

    def test_identity_max_corner(self):
        assert self.half("max").op_norm(np.eye(2)) == pytest.approx(0.5 * math.sqrt(2.0))

    def test_scalar(self):
        space = WeightedSpace(4, 2, "euclidean")
        assert space.op_norm(np.array([[3.0]])) == pytest.approx(0.75)

    def test_max_norm_dominates_euclidean_ball(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 2))
        # The infinity ball contains the euclidean ball.
        assert self.half("max").op_norm(m) >= self.half("euclidean").op_norm(m) - 1e-12

    def test_max_norm_takes_two_columns(self):
        for cols in (1, 3):
            with pytest.raises(ValueError, match=f"takes 2 columns, got {cols}"):
                self.half("max").op_norm(np.ones((4, cols)))

    @settings(max_examples=200, deadline=None, database=None)
    @given(rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-100, 1e100))
    def test_max_norm_matches_corner_enumeration(self, rows, seed, scale):
        # Products with +-1 and with 0.5 are exact, so the two routes agree
        # bitwise.
        m = scale * np.random.default_rng(seed).standard_normal((rows, 2))
        assert self.half("max").op_norm(m) == 0.5 * max_norm_corners(m)


class TestQuadratureRule:
    def test_gauss_rule_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(4)
        np.testing.assert_array_max_ulp(systems._GAUSS_NODES, nodes, maxulp=2)
        np.testing.assert_array_max_ulp(systems._GAUSS_WEIGHTS, weights, maxulp=2)
        # Exact for polynomials up to degree 7 on [-1, 1].
        for k in range(8):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            moment = float(np.sum(systems._GAUSS_WEIGHTS * systems._GAUSS_NODES**k))
            assert moment == pytest.approx(exact, abs=1e-15), k

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

    @settings(max_examples=100, deadline=None, database=None)
    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    def test_n_panels_integrate_the_hat_interpolant_exactly(self, n, seed):
        # The squared hat interpolant is quadratic on each grid interval, so
        # n Gauss panels give its hat mass-matrix form
        # dx/3 sum (a_j^2 + a_j a_{j+1} + a_{j+1}^2) with a = [0, x, 0].
        space = WeightedSpace(n)
        x = np.random.default_rng(seed).standard_normal(n - 1)
        a = np.concatenate([[0.0], x, [0.0]])
        exact = space.dx / 3 * math.fsum(a[:-1] ** 2 + a[:-1] * a[1:] + a[1:] ** 2)
        assert function_l2_norm(extend(x, space), panels=n) ** 2 == pytest.approx(
            exact, rel=1e-13, abs=0)


class TestRestrictExtend:
    def test_restrict_sine(self):
        x = restrict(lambda xi: np.sin(np.pi * xi), WeightedSpace(4))
        np.testing.assert_allclose(x, [math.sqrt(0.5), 1.0, math.sqrt(0.5)], rtol=1e-15)

    def test_hat_function_values(self):
        f = extend(np.array([1.0, 0.0, 0.0]), WeightedSpace(4))
        assert f(0.25) == pytest.approx(1.0)
        assert f(0.5) == pytest.approx(0.0)
        assert f(0.0) == 0.0
        assert f(1.0) == 0.0

    def test_restrict_after_extend_is_identity(self):
        rng = np.random.default_rng(5)
        space = WeightedSpace(10)
        x = rng.standard_normal(9)
        back = restrict(extend(x, space), space)
        np.testing.assert_array_equal(back, x)

    def test_interpolation_error_second_order(self):
        f = lambda xi: np.sin(np.pi * xi)
        gaps = []
        for n in (16, 32, 64, 128, 256, 512, 1024):
            space = WeightedSpace(n)
            lifted = extend(restrict(f, space), space)
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
