"""Numerical kernels: special functions, improper-integral quadrature,
tridiagonal eigendecompositions (closed form for uniform matrices, LAPACK
otherwise), spectral matrix functions and weighted operator norms.

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

__all__ = [
    "EigenDecomposition",
    "QuadratureResult",
    "QuadratureError",
    "EigenSolverError",
    "gamma_fn",
    "quad_exp_tail",
    "quad_cauchy_tail",
    "sym_tridiag_eig",
    "apply_matrix_function",
    "weighted_op_norm",
]

GAMMA_OVERFLOW_LIMIT = 170.0
MAX_CORNER_COLUMNS = 20
QUAD_EVAL_BUDGET = 10**6
# Double-exponential quadrature: relative agreement of two successive step
# halvings that ends the refinement, and the number of halvings allowed.
QUAD_RTOL = 1e-13
QUAD_MAX_LEVEL = 8
# Rows of the closed-form eigenvector matrix filled per block; bounds the
# index temporary at EIG_BLOCK_ROWS x m integers.
EIG_BLOCK_ROWS = 256


class QuadratureError(RuntimeError):
    """Raised when an integral does not converge within QUAD_MAX_LEVEL step
    halvings or QUAD_EVAL_BUDGET evaluations, or when its sum is not finite.

    Carries the best available estimate in ``best_estimate``.
    """

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


class EigenSolverError(RuntimeError):
    pass


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


@dataclass(frozen=True)
class EigenDecomposition:
    """Full real spectral decomposition ``V diag(values) V^T``.

    ``eigenvalues`` are ascending, ``eigenvectors`` holds orthonormal
    columns (unweighted inner product).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def gamma_fn(x: float) -> float:
    """Gamma function on (0, 170]; relative error below 1e-12."""
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x > GAMMA_OVERFLOW_LIMIT:
        raise ValueError(f"gamma_fn overflow guard: x = {x} > {GAMMA_OVERFLOW_LIMIT}")
    return math.gamma(x)


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
    """Spectral decomposition of a real symmetric tridiagonal matrix.

    A uniform matrix tridiag(e, d, e) (constant diagonal, constant nonzero
    off-diagonal) takes the closed form; every other input goes to LAPACK.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.ndim != 1 or offdiag.ndim != 1:
        raise ValueError("diag and offdiag must be one-dimensional")
    if offdiag.shape[0] != diag.shape[0] - 1:
        raise ValueError(
            f"offdiag length {offdiag.shape[0]} must be diag length {diag.shape[0]} minus one"
        )
    if _is_uniform(diag, offdiag):
        return _uniform_tridiag_eig(diag.size, float(diag[0]), float(offdiag[0]))
    # Imported here, not at module level: the closed form skips ~0.3 s of import.
    import scipy.linalg

    try:
        values, vectors = scipy.linalg.eigh_tridiagonal(diag, offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenSolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def _is_uniform(diag: np.ndarray, offdiag: np.ndarray) -> bool:
    if offdiag.size == 0:
        return False
    d, e = diag[0], offdiag[0]
    return (e != 0.0 and math.isfinite(abs(d) + 4.0 * abs(e))
            and bool(np.all(diag == d)) and bool(np.all(offdiag == e)))


def _uniform_tridiag_eig(m: int, d: float, e: float) -> EigenDecomposition:
    """Closed-form eigenpairs of the m x m matrix tridiag(e, d, e).

    Mode k (k = 1..m) has eigenvalue d + 2e cos(k pi/(m+1)) and eigenvector
    sqrt(2/(m+1)) sin(j k pi/(m+1)), j = 1..m (the DST-I basis).  In
    ascending order column c holds k = m - c when e > 0 and k = c + 1 when
    e < 0; either way its eigenvalue is (d + 2|e|) - 4|e| sin^2((m-c) pi/(2(m+1))),
    which keeps the few-ulp accuracy of the sine.
    """
    period = 2 * (m + 1)
    c = np.arange(m)
    values = (d + 2.0 * abs(e)) - 4.0 * abs(e) * np.sin((m - c) * (np.pi / period)) ** 2
    # Scaled sin(r pi/(m+1)) for r = 0..period-1; the argument is reduced to
    # [0, pi/2] by sin(pi - x) = sin(x), and the second half is the negated first.
    r = np.arange(m + 1)
    half = np.sin(np.minimum(r, m + 1 - r) * (np.pi / (m + 1)))
    table = math.sqrt(2.0 / (m + 1)) * np.concatenate([half, -half])
    k = c + 1 if e < 0.0 else m - c
    vectors = np.empty((m, m))
    # j k <= m^2; 32-bit indices halve the cost of the index arithmetic.
    itype = np.int32 if m * m < 2**31 else np.int64
    k = k.astype(itype)
    index = np.empty((min(EIG_BLOCK_ROWS, m), m), dtype=itype)
    for start in range(0, m, EIG_BLOCK_ROWS):
        stop = min(start + EIG_BLOCK_ROWS, m)
        idx = index[:stop - start]
        np.multiply.outer(np.arange(start + 1, stop + 1, dtype=itype), k, out=idx)
        np.remainder(idx, period, out=idx)
        np.take(table, idx, out=vectors[start:stop], mode="clip")
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def apply_matrix_function(eig: EigenDecomposition, f, b: np.ndarray) -> np.ndarray:
    """``V diag(f(lambda)) V^T @ b`` without forming the full matrix."""
    mapped = np.array([f(lam) for lam in eig.eigenvalues], dtype=float)
    bad = ~np.isfinite(mapped)
    if bad.any():
        lam = eig.eigenvalues[bad][0]
        raise ValueError(f"matrix function undefined or non-finite at eigenvalue {lam}")
    v = eig.eigenvectors
    return v @ (mapped[:, None] * (v.T @ b))


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
