"""Independent reference routes that the tests compare the library against.

They share no code with ``issgains`` beyond reading a system's matrices
or a decomposition's arrays.
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


def reconstruct(eig) -> np.ndarray:
    """The matrix ``V diag(values) V^T`` of a spectral decomposition."""
    v = eig.eigenvectors
    return (v * eig.eigenvalues) @ v.T


def matrix_function(eig, f) -> np.ndarray:
    """The dense matrix ``V diag(f(lambda)) V^T`` for a scalar map ``f``."""
    mapped = np.array([f(lam) for lam in eig.eigenvalues], dtype=float)
    if not np.all(np.isfinite(mapped)):
        raise ValueError("matrix function undefined or non-finite at an eigenvalue")
    v = eig.eigenvectors
    return (v * mapped) @ v.T


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
