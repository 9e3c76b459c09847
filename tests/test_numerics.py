import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import issgains.numerics as numerics
from issgains.config import QuadratureError
from issgains.numerics import (
    apply_matrix_function,
    quad_cauchy_tail,
    quad_exp_tail,
    sym_tridiag_eig,
    weighted_op_norm,
)
from issgains.systems import build_heat_dirichlet
from oracles import (dense_tridiag_eig, eigenvector_matrix, matrix_function,
                     quadpack_cauchy_tail, quadpack_exp_tail, reconstruct, resolvent_dense,
                     sine_basis_table)


def heat_diagonals(n, a=1.0):
    c = a * n * n
    return np.full(n - 1, -2.0 * c), np.full(n - 2, c)


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
        expected = math.gamma(0.75) * 2.0 ** (-0.75)
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
            exp_exact = math.gamma(1.0 - alpha) * omega ** (alpha - 1.0)
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
    return math.gamma(1.0 - alpha) * omega ** (alpha - 1.0)


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
        assert abs(eigenvector_matrix(eig)[0, 0]) == pytest.approx(1.0)

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
        # Random uniform matrices: the only input the closed form accepts.
        rng = np.random.default_rng(7)
        for _ in range(10):
            dim = rng.integers(2, 30)
            diag = np.full(dim, rng.standard_normal())
            off = np.full(dim - 1, rng.standard_normal())
            eig = sym_tridiag_eig(diag, off)
            m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            scale = max(1.0, np.max(np.abs(m)))
            assert np.max(np.abs(reconstruct(eig) - m)) / scale < 1e-10
            v = eigenvector_matrix(eig)
            gram = v.T @ v
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
            assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sym_tridiag_eig([1.0, 2.0], [1.0, 1.0])

    @pytest.mark.parametrize("diag, off", [
        ([math.inf, math.inf], [1.0]),
        ([math.nan], []),
        ([-2.0, -2.0], [1e308]),  # the spectral bound d + 4|e| overflows
    ])
    def test_non_finite_input(self, diag, off):
        with pytest.raises(ValueError, match="not finite"):
            sym_tridiag_eig(diag, off)


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
        v = eigenvector_matrix(eig)
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
        # Column c is mode k = c + 1 for e < 0.  The reference reduces the
        # sine argument: sin(j k pi/(m+1)) taken directly reaches 8.1 pi and
        # is itself 1.2e-15 off at column 8.
        modes = sine_basis_table(m, np.arange(1, m + 1))
        np.testing.assert_allclose(eigenvector_matrix(eig), modes, atol=1e-15)

    @pytest.mark.parametrize("diag, off", [
        ([-2.0, -2.0, -2.0], [1.0, 1.5]),
        ([-2.0, -2.1, -2.0], [1.0, 1.0]),
        ([-2.0, -2.0, -2.0], [0.0, 0.0]),
        ([-2.0], []),
    ])
    def test_non_uniform_input_is_refused(self, diag, off):
        # Uniform input (one diagonal value, at most one off-diagonal value)
        # takes the closed form: the 1 x 1 matrix, and a zero off-diagonal
        # too, since d I has every eigenvalue exactly d and the sine basis is
        # an orthonormal eigenbasis of it.  Other input has no closed form.
        if not (len(set(diag)) == 1 and len(set(off)) <= 1):
            with pytest.raises(ValueError, match="not uniform"):
                sym_tridiag_eig(diag, off)
            return
        eig = sym_tridiag_eig(diag, off)
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        norm_t = np.max(np.sum(np.abs(t), axis=1))
        np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(t), rtol=0,
                                   atol=1e-14 * norm_t)
        assert np.max(np.abs(reconstruct(eig) - t)) <= 1e-14 * norm_t


def uniform_basis(m, e):
    """The eigenvector basis of tridiag(e, -2|e|, e) and its dense sine
    table: column c is mode m - c for e > 0 and mode c + 1 for e < 0."""
    eig = sym_tridiag_eig(np.full(m, -2.0 * abs(e)), np.full(m - 1, e))
    modes = np.arange(m, 0, -1) if e > 0 else np.arange(1, m + 1)
    return eig.eigenvectors, sine_basis_table(m, modes)


class TestSineBasis:
    """The matrix-free sine eigenvectors against the dense table."""

    PROPERTY = settings(max_examples=60, deadline=None, database=None)

    @staticmethod
    def _draw(m, cols, seed):
        x = np.random.default_rng(seed).standard_normal((m, cols) if cols else m)
        return x, 1e-14 * np.linalg.norm(x)

    @PROPERTY
    @given(m=st.integers(1, 600), e=st.sampled_from([1.0, -2.5, 4.0e6, -1e-3]),
           cols=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_products_match_dense(self, m, e, cols, seed):
        v, dense = uniform_basis(m, e)
        x, tol = self._draw(m, cols, seed)
        assert np.max(np.abs(v @ x - dense @ x)) <= tol
        assert np.max(np.abs(v.T @ x - dense.T @ x)) <= tol

    @PROPERTY
    @given(m=st.integers(1, 600), e=st.sampled_from([1.0, -1.0]),
           cols=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, m, e, cols, seed):
        v, _ = uniform_basis(m, e)
        x, tol = self._draw(m, cols, seed)
        back = v @ (v.T @ x)
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) <= tol

    @pytest.mark.parametrize("m", [1, 10, 1000, 10**6])
    def test_nbytes_linear_in_m(self, m):
        v = sym_tridiag_eig(np.full(m, -2.0), np.full(m - 1, 1.0)).eigenvectors
        assert v.shape == (m, m)
        assert 0 < v.nbytes <= 8 * m

    @pytest.mark.parametrize("e", [1.0, -1.0])
    def test_products_never_densify(self, monkeypatch, e):
        calls = []

        def spy(self, *args, **kwargs):
            calls.append(1)
            return self @ np.eye(self.shape[0])

        monkeypatch.setattr(numerics.SineBasis, "__array__", spy, raising=False)
        v, dense = uniform_basis(50, e)
        x = np.random.default_rng(5).standard_normal((50, 3))
        for product in (v @ x, v.T @ x, v.T @ x[:, 0]):
            assert isinstance(product, np.ndarray)
        assert calls == []

    def test_shape_mismatch(self):
        v, _ = uniform_basis(5, 1.0)
        for bad in (np.ones(4), np.ones((4, 2)), np.ones((5, 2, 2))):
            with pytest.raises(ValueError, match="5 x 5 sine basis"):
                v @ bad


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
        # The zero matrix: singular, and uniform.
        eig = sym_tridiag_eig([0.0, 0.0], [0.0])
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="eigenvalue"):
            apply_matrix_function(eig, lambda lam: 1.0 / lam, np.eye(2))

    def test_spectral_exp_matches_taylor_series(self):
        # Random non-uniform matrices, decomposed by the dense oracle.
        rng = np.random.default_rng(11)
        for _ in range(5):
            dim = rng.integers(2, 50)
            diag = rng.uniform(-3.0, 0.0, dim)
            off = rng.uniform(-1.0, 1.0, dim - 1)
            eig = dense_tridiag_eig(diag, off)
            m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            # 50-term series is an adequate oracle for these mild norms
            series = np.eye(dim)
            term = np.eye(dim)
            for k in range(1, 50):
                term = term @ m / k
                series = series + term
            spectral = apply_matrix_function(eig, np.exp, np.eye(dim))
            assert np.max(np.abs(spectral - series)) < 1e-9

    def test_apply_matches_full_product(self):
        eig = sym_tridiag_eig(*heat_diagonals(20))
        b = np.zeros((19, 2))
        b[0, 0] = 400.0
        b[-1, 1] = 400.0
        full = matrix_function(eig, lambda lam: (-lam) ** -0.5) @ b
        applied = apply_matrix_function(eig, lambda lam: (-lam) ** -0.5, b)
        np.testing.assert_allclose(applied, full, atol=1e-10)
        # The matrix path is the grouping V (f(lambda) * (V^T B)), bit for bit.
        v = eig.eigenvectors
        mapped = (-eig.eigenvalues) ** -0.5
        assert np.array_equal(applied, v @ (mapped[:, None] * (v.T @ b)))

    @settings(max_examples=60, deadline=None, database=None)
    @given(m=st.integers(1, 600), alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           rhs=st.sampled_from(["vector", "matrix", "shift family"]),
           seed=st.integers(0, 2**32 - 1))
    def test_one_call_maps_the_whole_spectrum(self, m, alpha, rhs, seed):
        eig = sym_tridiag_eig(*heat_diagonals(m + 1))
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((m, int(rng.integers(1, 4))) if rhs == "matrix" else m)
        shifts = np.concatenate([[0.0], rng.uniform(0.0, 1e4, int(rng.integers(0, 4)))])
        calls = []

        def f(lam):
            calls.append(lam)
            if rhs == "shift family":
                return 1.0 / np.subtract.outer(shifts, lam).T
            return (-lam) ** (alpha - 1.0)

        applied = apply_matrix_function(eig, f, b)
        assert len(calls) == 1
        assert calls[0].shape == (m,) and np.array_equal(calls[0], eig.eigenvalues)
        # The oracle maps one eigenvalue per call.
        if rhs == "shift family":
            expected = np.column_stack([matrix_function(eig, lambda lam: 1.0 / (shift - lam)) @ b
                                        for shift in shifts])
        else:
            expected = matrix_function(eig, lambda lam: (-lam) ** (alpha - 1.0)) @ b
        assert applied.shape == expected.shape
        scale = np.max(np.abs(f(eig.eigenvalues))) * np.linalg.norm(b)
        assert np.max(np.abs(applied - expected)) <= 1e-13 * scale

    def test_vector_rhs_gives_a_vector(self):
        sys = build_heat_dirichlet(8, 1.0)
        eig = sys.eigendecomposition()
        b = np.random.default_rng(3).standard_normal(7)
        applied = apply_matrix_function(eig, lambda lam: (-lam) ** -0.5, b)
        assert applied.shape == (7,)
        full = matrix_function(eig, lambda lam: (-lam) ** -0.5) @ b
        np.testing.assert_allclose(applied, full, rtol=1e-12, atol=1e-14)

    def test_function_family_gives_one_column_per_member(self):
        sys = build_heat_dirichlet(8, 1.0)
        shifts = np.array([1e-3, 2.0, 5e3])
        b = np.random.default_rng(4).standard_normal(7)
        applied = apply_matrix_function(sys.eigendecomposition(),
                                        lambda lam: 1.0 / np.subtract.outer(shifts, lam).T, b)
        assert applied.shape == (7, 3)
        for j, shift in enumerate(shifts):
            np.testing.assert_allclose(applied[:, j], resolvent_dense(sys, shift, b), rtol=1e-12)


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
