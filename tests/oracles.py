"""Independent reference routes that the tests compare the library against.

They share no code with ``issgains`` beyond reading a system's matrices
or a decomposition's arrays.
"""

import math

import numpy as np


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
