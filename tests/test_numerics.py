import math

import numpy as np
import pytest
import scipy.linalg

import issgains.numerics as numerics
from issgains.numerics import (
    QuadratureError,
    apply_matrix_function,
    gamma_fn,
    quad_cauchy_tail,
    quad_exp_tail,
    sym_tridiag_eig,
    weighted_op_norm,
)
from oracles import matrix_function, quadpack_cauchy_tail, quadpack_exp_tail, reconstruct


def heat_diagonals(n, a=1.0):
    c = a * n * n
    return np.full(n - 1, -2.0 * c), np.full(n - 2, c)


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_reflection_oracle_at_0p3(self):
        # Gamma(0.3) * Gamma(0.7) = pi / sin(0.3 pi)
        lhs = gamma_fn(0.3) * gamma_fn(0.7)
        assert lhs == pytest.approx(math.pi / math.sin(0.3 * math.pi), abs=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_reflection_identity(self, x):
        value = gamma_fn(x) * gamma_fn(1.0 - x) * math.sin(math.pi * x) / math.pi
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, 171.0])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            gamma_fn(x)


class TestQuadratures:
    def test_exp_tail_gamma_half(self):
        res = quad_exp_tail(0.5, 1.0)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations >= 1

    def test_exp_tail_reference_rate(self):
        res = quad_exp_tail(0.5, 9.8647)
        assert res.value == pytest.approx(math.sqrt(math.pi / 9.8647), rel=1e-10)
        assert res.value == pytest.approx(0.56433, abs=5e-6)

    def test_exp_tail_quarter(self):
        expected = gamma_fn(0.75) * 2.0 ** (-0.75)
        assert quad_exp_tail(0.25, 2.0).value == pytest.approx(expected, rel=1e-10)

    def test_cauchy_tail_half(self):
        assert quad_cauchy_tail(0.5).value == pytest.approx(math.pi, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_cauchy_tail_symmetry(self, alpha):
        assert quad_cauchy_tail(alpha).value == pytest.approx(4.4428829382, abs=1e-8)

    def test_closed_form_agreement_random_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            alpha = rng.uniform(0.05, 0.95)
            omega = rng.uniform(0.1, 100.0)
            exp_exact = gamma_fn(1.0 - alpha) * omega ** (alpha - 1.0)
            assert quad_exp_tail(alpha, omega).value == pytest.approx(exp_exact, rel=1e-8)
            cauchy_exact = math.pi / math.sin(math.pi * alpha)
            assert quad_cauchy_tail(alpha).value == pytest.approx(cauchy_exact, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            quad_exp_tail(alpha, 1.0)
        with pytest.raises(ValueError):
            quad_cauchy_tail(alpha)

    def test_omega_domain(self):
        with pytest.raises(ValueError):
            quad_exp_tail(0.5, 0.0)


ALPHA_GRID = np.linspace(0.01, 0.99, 15)
OMEGA_GRID = (1e-8, 1e-4, 1.0, math.pi**2, 1e4, 1e8)


def exp_tail_exact(alpha, omega):
    return gamma_fn(1.0 - alpha) * omega ** (alpha - 1.0)


def cauchy_tail_exact(alpha):
    # sin(pi alpha) = sin(pi (1 - alpha)); the smaller argument keeps full accuracy.
    return math.pi / math.sin(math.pi * min(alpha, 1.0 - alpha))


class TestDoubleExponential:
    @pytest.mark.parametrize("omega", OMEGA_GRID)
    def test_exp_tail_closed_form(self, omega):
        for alpha in ALPHA_GRID:
            res = quad_exp_tail(alpha, omega)
            exact = exp_tail_exact(alpha, omega)
            assert abs(res.value - exact) <= 1e-12 * exact, (alpha, omega)
            assert res.evaluations >= 1
            assert res.abs_error_estimate >= 0.0

    def test_cauchy_tail_closed_form(self):
        for alpha in ALPHA_GRID:
            res = quad_cauchy_tail(alpha)
            exact = cauchy_tail_exact(alpha)
            assert abs(res.value - exact) <= 1e-12 * exact, alpha
            assert res.evaluations >= 1
            assert res.abs_error_estimate >= 0.0

    def test_agrees_with_quadpack_where_quadpack_is_right(self):
        # "Right" means within QUADPACK's own requested tolerance, 1e-12, of
        # the closed form; the two routes then agree to the sum of both.
        compared = 0
        for omega in OMEGA_GRID:
            for alpha in ALPHA_GRID:
                exact = exp_tail_exact(alpha, omega)
                reference = quadpack_exp_tail(alpha, omega)
                if abs(reference - exact) <= 1e-12 * exact:
                    assert quad_exp_tail(alpha, omega).value == pytest.approx(reference, rel=2e-12)
                    compared += 1
        for alpha in ALPHA_GRID:
            reference = quadpack_cauchy_tail(alpha)
            assert abs(reference - cauchy_tail_exact(alpha)) <= 1e-12 * reference
            assert quad_cauchy_tail(alpha).value == pytest.approx(reference, rel=2e-12)
        # QUADPACK is right at omega in {1e-4, 1, pi^2, 1e4} for almost every
        # alpha of the grid, and wrong at 1e-8 for all of them.
        assert compared >= 4 * ALPHA_GRID.size

    def test_non_finite_integrand(self):
        # The node t = 0 of the tanh-sinh rule is x = 1/2.
        with pytest.raises(QuadratureError, match="probe.*non-finite") as info:
            numerics._quad("probe", [(numerics._TANH_SINH,
                                      lambda x: np.where(x == 0.5, np.inf, 1.0))])
        assert info.value.best_estimate == math.inf

    def test_no_convergence_within_level_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "QUAD_MAX_LEVEL", 1)
        with pytest.raises(QuadratureError, match=r"quad_exp_tail\(alpha=0.5.*best estimate") as info:
            quad_exp_tail(0.5, 1.0)
        assert info.value.best_estimate == pytest.approx(math.sqrt(math.pi), rel=1e-2)

    def test_evaluation_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "QUAD_EVAL_BUDGET", 100)
        with pytest.raises(QuadratureError, match="quad_cauchy_tail.*100 evaluations"):
            quad_cauchy_tail(0.5)

    def test_subnormal_omega_is_an_error(self):
        # omega^(alpha - 1) overflows a double.
        with pytest.raises(QuadratureError, match="non-finite"):
            quad_exp_tail(0.01, 1e-320)


class TestTridiagEig:
    def test_scalar(self):
        eig = sym_tridiag_eig([-8.0], [])
        assert eig.eigenvalues == pytest.approx([-8.0])
        assert abs(eig.eigenvectors[0, 0]) == pytest.approx(1.0)

    def test_two_by_two(self):
        eig = sym_tridiag_eig([-18.0, -18.0], [9.0])
        assert eig.eigenvalues == pytest.approx([-27.0, -9.0])

    def test_heat_stencil_analytic_spectrum(self):
        n = 100
        eig = sym_tridiag_eig(*heat_diagonals(n))
        k = np.arange(1, n)
        exact = -4.0 * n**2 * np.sin(k * np.pi / (2 * n)) ** 2
        np.testing.assert_allclose(eig.eigenvalues, np.sort(exact), rtol=1e-8)

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_heat_eigen_oracle(self, n):
        eig = sym_tridiag_eig(*heat_diagonals(n))
        k = np.arange(1, n)
        exact = np.sort(-4.0 * n**2 * np.sin(k * np.pi / (2 * n)) ** 2)
        np.testing.assert_allclose(eig.eigenvalues, exact, rtol=1e-8)

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            dim = rng.integers(2, 30)
            diag = rng.standard_normal(dim)
            off = rng.standard_normal(dim - 1)
            eig = sym_tridiag_eig(diag, off)
            m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            scale = max(1.0, np.max(np.abs(m)))
            assert np.max(np.abs(reconstruct(eig) - m)) / scale < 1e-10
            gram = eig.eigenvectors.T @ eig.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
            assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sym_tridiag_eig([1.0, 2.0], [1.0, 1.0])


class TestUniformClosedForm:
    """The closed-form path for tridiag(e, d, e) against LAPACK."""

    @pytest.mark.parametrize("m", [2, 3, 17, 256, 999])
    @pytest.mark.parametrize("e", [1.0, -2.5, 4.0e6])
    @pytest.mark.parametrize("d_over_e", [-2.0, 0.0, 0.7])
    def test_matches_lapack(self, m, e, d_over_e):
        d = d_over_e * abs(e) - 1.5
        diag, off = np.full(m, d), np.full(m - 1, e)
        eig = sym_tridiag_eig(diag, off)
        values = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
        norm_t = abs(d) + 2.0 * abs(e)
        assert np.max(np.abs(eig.eigenvalues - values)) <= 1e-14 * norm_t
        assert np.all(np.diff(eig.eigenvalues) >= 0)
        v = eig.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(m))) <= 1e-13
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(reconstruct(eig) - t)) <= 1e-13 * norm_t

    def test_heat_spectrum_to_a_few_ulps(self):
        n = 4000
        eig = sym_tridiag_eig(*heat_diagonals(n))
        k = np.arange(n - 1, 0, -1)
        exact = -4.0 * n**2 * np.sin(k * np.pi / (2 * n)) ** 2
        # A few ulps: the sine arguments round differently.
        np.testing.assert_allclose(eig.eigenvalues, exact, rtol=2e-15, atol=0.0)

    def test_sine_modes(self):
        m = 9
        eig = sym_tridiag_eig(np.full(m, 3.0), np.full(m - 1, -1.0))
        j = np.arange(1, m + 1)
        for col in range(m):
            mode = math.sqrt(2.0 / (m + 1)) * np.sin(j * (col + 1) * np.pi / (m + 1))
            np.testing.assert_allclose(eig.eigenvectors[:, col], mode, atol=1e-15)

    @pytest.mark.parametrize("diag, off", [
        ([-2.0, -2.0, -2.0], [1.0, 1.5]),
        ([-2.0, -2.1, -2.0], [1.0, 1.0]),
        ([-2.0, -2.0, -2.0], [0.0, 0.0]),
        ([-2.0], []),
    ])
    def test_other_input_goes_to_lapack(self, monkeypatch, diag, off):
        calls = []
        solver = scipy.linalg.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return solver(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
        sym_tridiag_eig(diag, off)
        sym_tridiag_eig(*heat_diagonals(8))
        assert calls == [len(diag)]


class TestMatrixFunction:
    def test_identity_map_reconstructs(self):
        eig = sym_tridiag_eig(*heat_diagonals(10))
        m = np.diag(np.full(9, -200.0)) + np.diag(np.full(8, 100.0), 1) + np.diag(np.full(8, 100.0), -1)
        assert np.max(np.abs(matrix_function(eig, lambda lam: lam) - m)) < 1e-10 * 200

    def test_inverse_sqrt_spectrum_n3(self):
        eig = sym_tridiag_eig(*heat_diagonals(3))
        m = matrix_function(eig, lambda lam: (-lam) ** -0.5)
        spec = np.linalg.eigvalsh(m)
        assert np.sort(spec) == pytest.approx([1.0 / math.sqrt(27.0), 1.0 / 3.0])

    def test_scalar_exponential(self):
        eig = sym_tridiag_eig([-8.0], [])
        m = matrix_function(eig, lambda lam: math.exp(lam * 0.1))
        assert m[0, 0] == pytest.approx(math.exp(-0.8), rel=1e-12)

    def test_undefined_at_eigenvalue(self):
        eig = sym_tridiag_eig([0.0, -2.0], [0.0])
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="eigenvalue"):
            apply_matrix_function(eig, lambda lam: 1.0 / lam, np.eye(2))

    def test_spectral_exp_matches_taylor_series(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            dim = rng.integers(2, 50)
            diag = rng.uniform(-3.0, 0.0, dim)
            off = rng.uniform(-1.0, 1.0, dim - 1)
            eig = sym_tridiag_eig(diag, off)
            m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            # 50-term series is an adequate oracle for these mild norms
            series = np.eye(dim)
            term = np.eye(dim)
            for k in range(1, 50):
                term = term @ m / k
                series = series + term
            spectral = matrix_function(eig, math.exp)
            assert np.max(np.abs(spectral - series)) < 1e-9

    def test_apply_matches_full_product(self):
        eig = sym_tridiag_eig(*heat_diagonals(20))
        b = np.zeros((19, 2))
        b[0, 0] = 400.0
        b[-1, 1] = 400.0
        full = matrix_function(eig, lambda lam: (-lam) ** -0.5) @ b
        applied = apply_matrix_function(eig, lambda lam: (-lam) ** -0.5, b)
        np.testing.assert_allclose(applied, full, atol=1e-10)


class TestWeightedOpNorm:
    def test_identity_euclidean(self):
        assert weighted_op_norm(np.eye(2), 1.0, "euclidean") == pytest.approx(1.0)

    def test_identity_max_corner(self):
        assert weighted_op_norm(np.eye(2), 0.5, "max") == pytest.approx(0.5 * math.sqrt(2.0))

    def test_scalar(self):
        assert weighted_op_norm(np.array([[3.0]]), 2.0, "euclidean") == pytest.approx(6.0)

    def test_max_norm_dominates_euclidean_ball(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3))
        # The infinity ball contains the euclidean ball.
        assert weighted_op_norm(m, 1.0, "max") >= weighted_op_norm(m, 1.0, "euclidean") - 1e-12

    def test_column_cap(self):
        with pytest.raises(ValueError, match="20"):
            weighted_op_norm(np.ones((2, 21)), 1.0, "max")

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            weighted_op_norm(np.eye(2), 0.0)
