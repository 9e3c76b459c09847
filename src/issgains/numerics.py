"""Numerical kernels: improper-integral quadrature, the closed-form
eigendecomposition of a uniform tridiagonal (its sine eigenvectors applied
by FFT and never formed), spectral matrix functions and weighted operator
norms.

The quadrature is a double-exponential rule in numpy alone (tanh-sinh on
(0, 1), exp-sinh on (1, inf)); it needs no scipy, so computing the K
constants imports none.

Everything here is pure and deterministic; results may be shared freely
between threads.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import QuadratureError

__all__ = [
    "EigenDecomposition",
    "SineBasis",
    "QuadratureResult",
    "quad_exp_tail",
    "quad_cauchy_tail",
    "sym_tridiag_eig",
    "apply_matrix_function",
    "weighted_op_norm",
]

MAX_CORNER_COLUMNS = 20
QUAD_EVAL_BUDGET = 10**6
# Double-exponential quadrature: relative agreement of two successive step
# halvings that ends the refinement, and the number of halvings allowed.
QUAD_RTOL = 1e-13
QUAD_MAX_LEVEL = 8


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("negative error estimate")
        if self.evaluations < 1:
            raise ValueError("evaluation count must be >= 1")


class SineBasis:
    """The orthonormal DST-I eigenvectors of a uniform m x m tridiagonal,
    applied by FFT and never formed.

    Column c is the sine mode k = order[c] + 1, with entries
    sqrt(2/(m+1)) sin(j k pi/(m+1)), j = 1..m.  The basis supports the
    products ``v @ x`` and ``v.T @ x`` for x with m rows (one or two
    dimensions).  Each costs one real FFT of length 2(m+1) per column of x,
    O(m log m), and the basis itself holds only the m-entry mode order.
    """

    def __init__(self, order: np.ndarray, transposed: bool = False):
        self.order = order
        self.transposed = transposed

    @property
    def shape(self) -> tuple:
        return (self.order.size, self.order.size)

    @property
    def nbytes(self) -> int:
        return self.order.nbytes

    @property
    def T(self) -> "SineBasis":
        return SineBasis(self.order, not self.transposed)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        m = self.order.size
        if x.ndim not in (1, 2) or x.shape[0] != m:
            raise ValueError(f"cannot apply a {m} x {m} sine basis to shape {x.shape}")
        scale = math.sqrt(2.0 / (m + 1))
        if self.transposed:
            # V^T x = P^T S x: the sine transform, read in mode order.
            return scale * _dst1(x)[self.order]
        # V x = S P x: the coefficients placed at their modes, then transformed.
        placed = np.empty_like(x)
        placed[self.order] = x
        return scale * _dst1(placed)


def _dst1(x: np.ndarray) -> np.ndarray:
    """sum_k x_k sin(j k pi/(m+1)), j = 1..m, along axis 0 (unnormalised
    DST-I): minus half the imaginary part of the FFT of the odd extension
    (0, x, 0, -reversed x) of length 2(m+1)."""
    m = x.shape[0]
    odd = np.zeros((2 * (m + 1),) + x.shape[1:])
    odd[1:m + 1] = x
    odd[m + 2:] = -x[::-1]
    return -0.5 * np.fft.rfft(odd, axis=0)[1:m + 1].imag


@dataclass(frozen=True)
class EigenDecomposition:
    """Full real spectral decomposition ``V diag(values) V^T``.

    ``eigenvalues`` are ascending.  ``eigenvectors`` is the ``SineBasis``
    of orthonormal columns (unweighted inner product), applied by FFT as
    ``V @ x`` and ``V.T @ x`` and never stored as a matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: SineBasis


def _tanh_sinh(t):
    """Nodes x = 1/(1 + exp(-pi sinh t)) in (0, 1) and weights dx/dt.

    x and 1 - x = 1/(1 + exp(pi sinh t)) are each formed without
    cancellation, so nodes near either end keep full relative accuracy.
    """
    u = np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-u))
    return x, np.pi * np.cosh(t) * x / (1.0 + np.exp(u))


def _exp_sinh(t):
    """Nodes s = 1 + exp(pi/2 sinh t) in (1, inf) and weights ds/dt."""
    e = np.exp(0.5 * np.pi * np.sinh(t))
    return 1.0 + e, 0.5 * np.pi * np.cosh(t) * e


# Truncation windows |t| <= T: the exponent of each map stays within +-700.
# log(DBL_MAX) = 709.78 leaves room for the factor (pi/2) cosh T = 700 of the
# largest exp-sinh weight, so every node and weight is finite, and the
# smallest tanh-sinh node, about exp(-700) = 1e-304, is still a normal double
# above 0.  No term needs masking.
_TANH_SINH = (_tanh_sinh, math.asinh(700.0 / math.pi))
_EXP_SINH = (_exp_sinh, math.asinh(1400.0 / math.pi))


def _level_abscissae(level: int, window: float) -> np.ndarray:
    """The points t = k 2^-level with |t| <= window that no coarser level has."""
    h = 2.0**-level
    if level == 0:
        k = np.arange(-math.floor(window), math.floor(window) + 1)
    else:
        k = np.arange(1, math.floor(window / h) + 1, 2)
        k = np.concatenate([-k[::-1], k])
    return k * h


def _quad(name: str, parts, scale: float = 1.0) -> QuadratureResult:
    """scale * (sum of the integrals of ``parts``) by the double-exponential
    rule (Takahasi & Mori, 1974).

    Each part is ``(rule, fn)`` with ``rule`` one of _TANH_SINH (over (0, 1))
    or _EXP_SINH (over (1, inf)) and ``fn`` a vectorised integrand.  The
    trapezoid step on the t axis halves each level, reusing every earlier
    node, until two successive estimates agree to QUAD_RTOL relative.
    """
    total = 0.0
    evals = 0
    estimate = value = change = math.nan
    for level in range(QUAD_MAX_LEVEL + 1):
        for (rule, window), fn in parts:
            t = _level_abscissae(level, window)
            if evals + t.size > QUAD_EVAL_BUDGET:
                raise QuadratureError(
                    f"{name} exceeded {QUAD_EVAL_BUDGET} evaluations; "
                    f"best estimate {scale * estimate:.17g}", best_estimate=scale * estimate)
            x, w = rule(t)
            total += float(np.sum(fn(x) * w))
            evals += t.size
        previous, estimate = estimate, total * 2.0**-level
        value = scale * estimate
        if not math.isfinite(value):
            raise QuadratureError(f"{name} has a non-finite sum {value!r}", best_estimate=value)
        change = abs(estimate - previous)
        if change <= QUAD_RTOL * abs(estimate):
            return QuadratureResult(value=value, abs_error_estimate=scale * change,
                                    evaluations=evals)
    raise QuadratureError(
        f"{name} did not converge within {QUAD_MAX_LEVEL} step halvings "
        f"(last change {scale * change:.3g}); best estimate {value:.17g}",
        best_estimate=value)


def quad_exp_tail(alpha: float, omega: float) -> QuadratureResult:
    """Integral of s^(-alpha) exp(-omega s) over (0, inf).

    The change of variables s = t/omega turns it into omega^(alpha-1) times
    the omega-free integral of t^(-alpha) exp(-t).  Its endpoint singularity
    on (0, 1) is removed by the power substitution t = r^(1/(1-alpha)); the
    tail on (1, inf) is integrated directly.
    """
    _check_alpha(alpha)
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    try:
        scale = omega ** (alpha - 1.0)
    except OverflowError:  # a subnormal omega; _quad reports the non-finite value
        scale = math.inf
    q = 1.0 / (1.0 - alpha)
    return _quad(f"quad_exp_tail(alpha={alpha!r}, omega={omega!r})", [
        (_TANH_SINH, lambda r: q * np.exp(-r**q)),
        (_EXP_SINH, lambda t: t**-alpha * np.exp(-t)),
    ], scale=scale)


def quad_cauchy_tail(alpha: float) -> QuadratureResult:
    """Integral of s^(-alpha) / (1 + s) over (0, inf).

    Both halves reduce to smooth integrals on (0, 1): the head via
    s = r^(1/(1-alpha)), the tail via s = 1/t followed by t = r^(1/alpha).
    """
    _check_alpha(alpha)
    qh = 1.0 / (1.0 - alpha)
    qt = 1.0 / alpha
    return _quad(f"quad_cauchy_tail(alpha={alpha!r})", [
        (_TANH_SINH, lambda r: qh / (1.0 + r**qh)),
        (_TANH_SINH, lambda r: qt / (1.0 + r**qt)),
    ])


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def sym_tridiag_eig(diag, offdiag) -> EigenDecomposition:
    """Spectral decomposition of a uniform symmetric tridiagonal matrix
    tridiag(e, d, e): constant diagonal and constant off-diagonal, zero or
    absent included.  It takes the closed form; other input, or entries
    for which d + 4|e| is not finite, raise ``ValueError``.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.ndim != 1 or offdiag.ndim != 1:
        raise ValueError("diag and offdiag must be one-dimensional")
    if offdiag.shape[0] != diag.shape[0] - 1:
        raise ValueError(
            f"offdiag length {offdiag.shape[0]} must be diag length {diag.shape[0]} minus one"
        )
    d = float(diag[0])
    e = float(offdiag[0]) if offdiag.size else 0.0
    if not math.isfinite(abs(d) + 4.0 * abs(e)):
        raise ValueError(f"tridiagonal entries d = {d}, e = {e} are too large or not finite")
    if not (np.all(diag == d) and np.all(offdiag == e)):
        raise ValueError("the tridiagonal is not uniform: its diagonals are not constant")
    return _uniform_tridiag_eig(diag.size, d, e)


def _uniform_tridiag_eig(m: int, d: float, e: float) -> EigenDecomposition:
    """Closed-form eigenpairs of the m x m matrix tridiag(e, d, e).

    Mode k (k = 1..m) has eigenvalue d + 2e cos(k pi/(m+1)) and eigenvector
    sqrt(2/(m+1)) sin(j k pi/(m+1)), j = 1..m (the DST-I basis).  In
    ascending order column c holds k = m - c when e > 0 and k = c + 1 when
    e < 0; either way its eigenvalue is (d + 2|e|) - 4|e| sin^2((m-c) pi/(2(m+1))),
    which keeps the few-ulp accuracy of the sine.  For e = 0 every eigenvalue
    is exactly d and the sine basis is still an orthonormal eigenbasis.
    """
    c = np.arange(m)
    values = (d + 2.0 * abs(e)) - 4.0 * abs(e) * np.sin((m - c) * (np.pi / (2 * (m + 1)))) ** 2
    order = c if e < 0.0 else m - 1 - c
    return EigenDecomposition(eigenvalues=values, eigenvectors=SineBasis(order))


def apply_matrix_function(eig: EigenDecomposition, f, b: np.ndarray) -> np.ndarray:
    """``V diag(f(lambda)) V^T @ b`` without forming the full matrix.

    ``f`` is called once, on the whole eigenvalue array, and maps it
    elementwise.  For a vector ``b`` it may return one row per eigenvalue (a
    family of functions, by broadcasting); the result then has one column
    per member."""
    mapped = np.asarray(f(eig.eigenvalues), dtype=float)
    bad = ~np.isfinite(mapped)
    if bad.any():
        lam = eig.eigenvalues[np.nonzero(bad)[0][0]]
        raise ValueError(f"matrix function undefined or non-finite at eigenvalue {lam}")
    v = eig.eigenvectors
    coeffs = v.T @ b
    if coeffs.ndim == 2:
        return v @ (mapped[:, None] * coeffs)
    return v @ (mapped.T * coeffs).T


def weighted_op_norm(m: np.ndarray, row_weight: float, col_norm: str = "euclidean") -> float:
    """Operator norm of ``u -> row_weight * m @ u`` from (R^cols, col_norm)
    into the euclidean space.

    For ``col_norm='max'`` the supremum over the unit infinity-ball is
    attained at its corners (the map is convex), which are enumerated
    exactly; this is capped at 20 columns.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not row_weight > 0.0:
        raise ValueError(f"row_weight must be positive, got {row_weight}")
    if col_norm == "euclidean":
        return row_weight * float(np.linalg.norm(m, 2))
    if col_norm == "max":
        cols = m.shape[1]
        if cols > MAX_CORNER_COLUMNS:
            raise ValueError(
                f"max-norm operator norm supports at most {MAX_CORNER_COLUMNS} columns, got {cols}"
            )
        # Sign symmetry: fix the first coordinate to +1.
        best = 0.0
        for signs in itertools.product((1.0, -1.0), repeat=cols - 1):
            u = np.array((1.0,) + signs)
            best = max(best, float(np.linalg.norm(m @ u)))
        return row_weight * best
    raise ValueError(f"unknown column norm {col_norm!r}")
