"""Independent reference routes that the tests compare the library against.

They share no code with ``issgains`` beyond reading a system's matrices
or a decomposition's arrays, and applying a decomposition's eigenvectors.
"""

import math

import numpy as np
import scipy.integrate


def frac_control_norm_gram(sys) -> float:
    """Fractional control norm for alpha = 1/2: the squared image norm is the
    quadratic form <Bu, (-A)^{-1} Bu>, evaluated by a dense solve."""
    b = sys.b_matrix
    gram = b.T @ np.linalg.solve(-sys.a_matrix, b)
    if sys.space.input_norm == "euclidean":
        top = float(np.max(np.linalg.eigvalsh(0.5 * (gram + gram.T))))
    else:
        # Sign symmetry: the corners (1, 1) and (1, -1) cover the max-norm ball.
        top = max(float(u @ gram @ u) for u in (np.array([1.0, 1.0]), np.array([1.0, -1.0])))
    return sys.space.state_scale * math.sqrt(top)


def resolvent_dense(sys, shift: float, rhs) -> np.ndarray:
    """(shift I - A)^{-1} rhs by a dense LU solve of the assembled matrix."""
    a = sys.a_matrix
    return np.linalg.solve(shift * np.eye(a.shape[0]) - a, rhs)


# Rows of the dense sine basis filled per block; bounds the index temporary
# at EIG_BLOCK_ROWS x m integers.
EIG_BLOCK_ROWS = 256


def sine_basis_table(m: int, modes) -> np.ndarray:
    """The dense m x m matrix whose column c is the orthonormal sine mode
    k = modes[c], sqrt(2/(m+1)) sin(j k pi/(m+1)) for j = 1..m.

    Entries are looked up in a table of sin(r pi/(m+1)), r = 0..2m+1, whose
    argument is reduced to [0, pi/2] by sin(pi - x) = sin(x), the second
    half being the negated first; so no sine is taken of an argument above
    pi/2, as sin(j k pi/(m+1)) itself would for j k up to m^2.
    """
    period = 2 * (m + 1)
    r = np.arange(m + 1)
    half = np.sin(np.minimum(r, m + 1 - r) * (np.pi / (m + 1)))
    table = math.sqrt(2.0 / (m + 1)) * np.concatenate([half, -half])
    # j k <= m^2; 32-bit indices halve the cost of the index arithmetic.
    itype = np.int32 if m * m < 2**31 else np.int64
    k = np.asarray(modes).astype(itype)
    vectors = np.empty((m, m))
    index = np.empty((min(EIG_BLOCK_ROWS, m), m), dtype=itype)
    for start in range(0, m, EIG_BLOCK_ROWS):
        stop = min(start + EIG_BLOCK_ROWS, m)
        idx = index[:stop - start]
        np.multiply.outer(np.arange(start + 1, stop + 1, dtype=itype), k, out=idx)
        np.remainder(idx, period, out=idx)
        np.take(table, idx, out=vectors[start:stop], mode="clip")
    return vectors


def eigenvector_matrix(eig) -> np.ndarray:
    """A decomposition's eigenvectors as a dense matrix: a dense ``eigh``
    result as it is, a matrix-free basis applied to the identity."""
    v = eig.eigenvectors
    return v if isinstance(v, np.ndarray) else v @ np.eye(v.shape[0])


def reconstruct(eig) -> np.ndarray:
    """The matrix ``V diag(values) V^T`` of a spectral decomposition."""
    v = eigenvector_matrix(eig)
    return (v * eig.eigenvalues) @ v.T


def matrix_function(eig, f) -> np.ndarray:
    """The dense matrix ``V diag(f(lambda)) V^T`` for a scalar map ``f``."""
    mapped = np.array([f(lam) for lam in eig.eigenvalues], dtype=float)
    if not np.all(np.isfinite(mapped)):
        raise ValueError("matrix function undefined or non-finite at an eigenvalue")
    v = eigenvector_matrix(eig)
    return (v * mapped) @ v.T


def simulate_stepwise(sys, x0, u, h: float, steps: int) -> np.ndarray:
    """Modal states y_0 .. y_steps of exact steps taken one at a time:
    exp(lambda h) y, then + phi (V^T B u_i), the forcing formed anew in each
    step.  ``u`` has one row per step, or one row held for every step."""
    eig = sys.eigendecomposition()
    lam, v = eig.eigenvalues, eig.eigenvectors
    decay = np.exp(lam * h)
    phi = (decay - 1.0) / lam
    g = v.T @ sys.b_matrix
    u = np.asarray(u, dtype=float)
    states = np.empty((steps + 1, lam.size))
    states[0] = v.T @ np.asarray(x0, dtype=float)
    for i in range(steps):
        row = states[i + 1]
        np.multiply(decay, states[i], out=row)
        row += phi * (g @ u[i if len(u) > 1 else 0])
    return states


def _quadpack(fn, lo, hi) -> float:
    # full_output=True returns QUADPACK's diagnostics instead of warning.
    return scipy.integrate.quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-12, full_output=True)[0]


def quadpack_exp_tail(alpha: float, omega: float) -> float:
    """Integral of s^(-alpha) exp(-omega s) over (0, inf) by QUADPACK, with
    s = r^(1/(1-alpha)) on (0, 1).  QUADPACK misses the peak for extreme
    omega (about 1e-8 or 1e8) without reporting it."""
    q = 1.0 / (1.0 - alpha)
    return (_quadpack(lambda r: q * np.exp(-omega * r**q), 0.0, 1.0)
            + _quadpack(lambda s: s**-alpha * np.exp(-omega * s), 1.0, np.inf))


def quadpack_cauchy_tail(alpha: float) -> float:
    """Integral of s^(-alpha) / (1 + s) over (0, inf) by QUADPACK, both
    halves mapped to (0, 1)."""
    qh = 1.0 / (1.0 - alpha)
    qt = 1.0 / alpha
    return (_quadpack(lambda r: qh / (1.0 + r**qh), 0.0, 1.0)
            + _quadpack(lambda r: qt / (1.0 + r**qt), 0.0, 1.0))
