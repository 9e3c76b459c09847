"""Numerical kernels: special functions, improper-integral quadrature,
tridiagonal eigendecompositions (closed form for uniform matrices, LAPACK
otherwise), spectral matrix functions and weighted operator norms.

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
# Rows of the closed-form eigenvector matrix filled per block; bounds the
# index temporary at EIG_BLOCK_ROWS x m integers.
EIG_BLOCK_ROWS = 256


class QuadratureError(RuntimeError):
    """Raised when an integral does not converge within budget.

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


def _quad(fn, lo, hi):
    # Imported here, not at module level: a command that never integrates skips ~0.7 s of import.
    import scipy.integrate

    value, err, info = scipy.integrate.quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-12, full_output=True)[:3]
    return value, err, info["neval"]


def quad_exp_tail(alpha: float, omega: float) -> QuadratureResult:
    """Integral of s^(-alpha) exp(-omega s) over (0, inf).

    The endpoint singularity on (0, 1) is removed by the power
    substitution s = r^(1/(1-alpha)); the tail is integrated directly.
    """
    _check_alpha(alpha)
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    q = 1.0 / (1.0 - alpha)
    head = _quad(lambda r: q * np.exp(-omega * r**q), 0.0, 1.0)
    tail = _quad(lambda s: s**-alpha * np.exp(-omega * s), 1.0, np.inf)
    return _combine(head, tail)


def quad_cauchy_tail(alpha: float) -> QuadratureResult:
    """Integral of s^(-alpha) / (1 + s) over (0, inf).

    Both halves reduce to smooth integrals on (0, 1): the head via
    s = r^(1/(1-alpha)), the tail via s = 1/t followed by t = r^(1/alpha).
    """
    _check_alpha(alpha)
    qh = 1.0 / (1.0 - alpha)
    qt = 1.0 / alpha
    head = _quad(lambda r: qh / (1.0 + r**qh), 0.0, 1.0)
    tail = _quad(lambda r: qt / (1.0 + r**qt), 0.0, 1.0)
    return _combine(head, tail)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _combine(head, tail) -> QuadratureResult:
    value = head[0] + tail[0]
    err = head[1] + tail[1]
    evals = head[2] + tail[2]
    if evals > QUAD_EVAL_BUDGET or not np.isfinite(value):
        raise QuadratureError(
            f"quadrature did not converge within {QUAD_EVAL_BUDGET} evaluations",
            best_estimate=value,
        )
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


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
