"""Numerical kernels: improper-integral quadrature, the closed-form
eigendecomposition of a uniform tridiagonal (its sine eigenvectors applied
by FFT and never formed) and spectral matrix functions.

The quadrature is one double-exponential rule, tanh-sinh on (0, 1), to
which each K-constant integral is mapped in two smooth parts.  The two
integrals, Gamma(1 - alpha) and pi/sin(pi alpha), are functions of alpha
alone; ``gains.k_constants`` scales them by omega and D.  The rule runs on
``math`` floats, each level summed by ``math.fsum``, so it needs no scipy,
and computing the K constants runs none of numpy's kernels.

The spectral kernels each hold a fixed few m-length arrays, in units of
8m B for an m x m decomposition applied to k columns: ``sym_tridiag_eig``
its result alone (2: the eigenvalues and the mode order), a sine-basis
product k + 4 beside its operand, and ``apply_matrix_function`` k + 4
beside b and f's result.  Every buffer is made by the call that uses it.

Everything here is pure and deterministic; results may be shared freely
between threads.
"""

import math
from typing import NamedTuple

import numpy as np

from .config import LimitError

__all__ = [
    "EigenDecomposition",
    "SineBasis",
    "QuadratureResult",
    "quad_exp_tail",
    "quad_cauchy_tail",
    "sym_tridiag_eig",
    "apply_matrix_function",
]

# Tanh-sinh quadrature: relative agreement of two successive step
# halvings that ends the refinement, and the number of halvings allowed.
QUAD_RTOL = 1e-13
QUAD_MAX_LEVEL = 8


class QuadratureResult(NamedTuple):
    """An integral's value, its absolute error estimate and the number of
    integrand evaluations it took.  ``_quad``, its one builder, makes the
    estimate |change| of the last step halving, and level 0 already has 13
    nodes."""

    value: float
    abs_error_estimate: float
    evaluations: int


class SineBasis:
    """The orthonormal DST-I eigenvectors of a uniform m x m tridiagonal,
    applied by FFT and never formed.

    Column c is the sine mode k = order[c] + 1, with entries
    sqrt(2/(m+1)) sin(j k pi/(m+1)), j = 1..m.  The basis supports the
    products ``v @ x`` and ``v.T @ x`` for x with m rows (one or two
    dimensions).  Each costs one real FFT of length 2(m+1) per column of x,
    O(m log m), and the basis itself holds only the m-entry mode order.

    The mode order is the identity (e < 0) or the reversal (e >= 0), so
    placing x at its modes, or reading a transform in mode order, is a view.

    In units of 8m B, with x of k columns, a product holds its k-unit
    result and, for one column at a time, the 2-unit odd extension and its
    2-unit spectrum: k + 4 beside x.  ``v @ x`` transforms the placed view
    of x into its result; ``v.T @ x`` reads its result in mode order, a
    second k-unit array for the reversal, once the transform's buffers are
    freed.  ``v.apply_in_place(x)`` is ``v @ x`` written over x: 4 beside x.
    """

    def __init__(self, order: np.ndarray, transposed: bool = False):
        self.order = order
        self.transposed = transposed
        self.reversed = bool(order.size > 1 and order[0] != 0)

    @property
    def shape(self) -> tuple:
        return (self.order.size, self.order.size)

    @property
    def nbytes(self) -> int:
        return self.order.nbytes

    @property
    def T(self) -> "SineBasis":
        return SineBasis(self.order, not self.transposed)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = self.order.size
        if x.ndim not in (1, 2) or x.shape[0] != m:
            raise ValueError(f"cannot apply a {m} x {m} sine basis to shape {x.shape}")
        return x

    def _permuted(self, x: np.ndarray) -> np.ndarray:
        """P x = P^T x, a view: the reversal is its own inverse."""
        return x[::-1] if self.reversed else x

    def __matmul__(self, x):
        x = self._check(x)
        scale = math.sqrt(2.0 / (self.order.size + 1))
        if self.transposed:
            # V^T x = P^T S x: the sine transform, read in mode order.
            return np.ascontiguousarray(self._permuted(_dst1(x, scale, np.empty(x.shape))))
        # V x = S P x: the coefficients placed at their modes, then transformed.
        return _dst1(self._permuted(x), scale, np.empty(x.shape))

    def apply_in_place(self, x: np.ndarray) -> np.ndarray:
        """V x written over the float array x, and returned; the same bits
        as ``v @ x``.  Each column of the placed view is read into the
        transform's buffer before its column of x is written."""
        if self.transposed:
            raise ValueError("only V, not V^T, is applied in place")
        x = self._check(x)
        return _dst1(self._permuted(x), math.sqrt(2.0 / (self.order.size + 1)), x)


def _dst1(x: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """out = scale * sum_k x_k sin(j k pi/(m+1)), j = 1..m, along axis 0 (a
    scaled DST-I); returns ``out``, which may be x itself.  Each column is
    minus half the imaginary part of the FFT of its odd extension
    (0, x, 0, -reversed x) of length 2(m+1), built in one buffer that every
    column reuses.  The factor -scale/2 is applied in one product: -1/2 is
    exact, so every output above the subnormal range rounds as
    scale * (-1/2 * transform) does."""
    m = x.shape[0]
    odd = np.zeros(2 * (m + 1))
    factor = -0.5 * scale
    for src, dst in zip(x.reshape(m, -1).T, out.reshape(m, -1).T):
        odd[1:m + 1] = src
        np.negative(src[::-1], out=odd[m + 2:])
        np.multiply(np.fft.rfft(odd)[1:m + 1].imag, factor, out=dst)
    return out


class EigenDecomposition(NamedTuple):
    """Full real spectral decomposition ``V diag(values) V^T``.

    ``eigenvalues`` are ascending.  ``eigenvectors`` is the ``SineBasis``
    of orthonormal columns (unweighted inner product), applied by FFT as
    ``V @ x`` and ``V.T @ x`` and never stored as a matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: SineBasis


def _tanh_sinh(t: float) -> tuple:
    """Node x = 1/(1 + exp(-pi sinh t)) in (0, 1) and weight dx/dt.

    x and 1 - x = 1/(1 + exp(pi sinh t)) are each formed without
    cancellation, so nodes near either end keep full relative accuracy.
    """
    u = math.pi * math.sinh(t)
    x = 1.0 / (1.0 + math.exp(-u))
    return x, math.pi * math.cosh(t) * x / (1.0 + math.exp(u))


# Truncation window |t| <= _WINDOW: pi sinh t stays within +-700, so every
# weight is finite (math.exp raises no OverflowError) and the smallest node,
# about exp(-700) = 1e-304, is still a normal double above 0.  No term needs
# masking.
_WINDOW = math.asinh(700.0 / math.pi)


def _level_nodes(level: int) -> list:
    """The (node, weight) pairs at t = k 2^-level, |t| <= _WINDOW, that no
    coarser level has."""
    h = 2.0**-level
    reach = math.floor(_WINDOW / h)
    return [_tanh_sinh(k * h) for k in range(-reach, reach + 1) if level == 0 or k % 2]


def _level_sum(terms: list) -> float:
    """The correctly rounded sum of ``terms``; an infinite or NaN term, or a
    sum past the double range, gives the non-finite float sum instead of
    fsum's exception, for _quad to report."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def _quad(name: str, integrands) -> QuadratureResult:
    """The sum of the integrals over (0, 1) of ``integrands``, each a
    function of one float, by the tanh-sinh rule (Takahasi & Mori, 1974), in
    ``math`` floats.

    The trapezoid step on the t axis halves each level, reusing every
    earlier node, until two successive estimates agree to QUAD_RTOL
    relative.  Each level's nodes are computed once for all the integrands,
    and each integrand's terms of a level are summed by ``math.fsum``.  The
    QUAD_MAX_LEVEL + 1 levels take 3123 nodes, so neither K-constant
    integral, of two integrands, can take more than 6246 evaluations.
    """
    total = 0.0
    evals = 0
    value = math.nan
    for level in range(QUAD_MAX_LEVEL + 1):
        nodes = _level_nodes(level)
        for fn in integrands:
            total += _level_sum([fn(x) * w for x, w in nodes])
        evals += len(nodes) * len(integrands)
        previous, value = value, total * 2.0**-level
        if not math.isfinite(value):
            raise LimitError(f"{name} has a non-finite sum {value!r}")
        change = abs(value - previous)
        if change <= QUAD_RTOL * abs(value):
            return QuadratureResult(value=value, abs_error_estimate=change, evaluations=evals)
    raise LimitError(
        f"{name} did not converge within {QUAD_MAX_LEVEL} step halvings "
        f"(last change {change:.3g}); best estimate {value:.17g}")


def quad_exp_tail(alpha: float) -> QuadratureResult:
    """Integral of t^(-alpha) exp(-t) over (0, inf), Gamma(1 - alpha), for
    alpha in (0, 1), which ``gains.k_constants``, the one caller, refuses
    outside; the decay rate omega enters K1 there alone.

    The endpoint singularity on (0, 1) is removed by the power substitution
    t = r^(1/(1-alpha)); the tail on (1, inf) maps to (0, 1) by t = 1/r, as
    the integral of r^(alpha-2) exp(-1/r), evaluated as one exp of
    (alpha - 2) ln r - 1/r: that exponent is at most
    (2 - alpha)(ln(2 - alpha) - 1) < 0, so it never overflows.
    """
    q = 1.0 / (1.0 - alpha)
    return _quad(f"quad_exp_tail(alpha={alpha!r})", [
        lambda r: q * math.exp(-r**q),
        lambda r: math.exp((alpha - 2.0) * math.log(r) - 1.0 / r),
    ])


def quad_cauchy_tail(alpha: float) -> QuadratureResult:
    """Integral of s^(-alpha) / (1 + s) over (0, inf), for alpha in (0, 1)
    as in ``quad_exp_tail``.

    Both halves reduce to smooth integrals on (0, 1): the head via
    s = r^(1/(1-alpha)), the tail via s = 1/t followed by t = r^(1/alpha).
    """
    qh = 1.0 / (1.0 - alpha)
    qt = 1.0 / alpha
    return _quad(f"quad_cauchy_tail(alpha={alpha!r})", [
        lambda r: qh / (1.0 + r**qh),
        lambda r: qt / (1.0 + r**qt),
    ])


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

    The eigenvalues are built in place in their one array, so the result
    (2 units of 8m B, with the mode order) is all the working set.
    """
    values = np.arange(m, 0, -1, dtype=float)
    values *= np.pi / (2 * (m + 1))
    np.sin(values, out=values)
    np.square(values, out=values)
    values *= 4.0 * abs(e)
    np.subtract(d + 2.0 * abs(e), values, out=values)
    order = np.arange(m) if e < 0.0 else np.arange(m - 1, -1, -1)
    return EigenDecomposition(eigenvalues=values, eigenvectors=SineBasis(order))


def apply_matrix_function(eig: EigenDecomposition, f, b: np.ndarray) -> np.ndarray:
    """``V diag(f(lambda)) V^T @ b`` without forming the full matrix.

    ``f`` is called once, on the whole eigenvalue array, and maps it
    elementwise; b is a vector or a matrix of columns.

    The coefficients V^T b are private to the call, so they are scaled, and
    V is applied to them, in place: in units of 8m B, with k the columns of
    b, the working set beside b and f's result is k + 4, the coefficients
    and one column's odd extension and spectrum (4)."""
    mapped = np.asarray(f(eig.eigenvalues), dtype=float)
    bad = ~np.isfinite(mapped)
    if bad.any():
        lam = eig.eigenvalues[np.nonzero(bad)[0][0]]
        raise ValueError(f"matrix function undefined or non-finite at eigenvalue {lam}")
    v = eig.eigenvectors
    coeffs = v.T @ b
    coeffs *= mapped[:, None] if coeffs.ndim == 2 else mapped
    if isinstance(v, SineBasis):
        return v.apply_in_place(coeffs)
    # A V held as a dense matrix takes the product.
    return v @ coeffs
