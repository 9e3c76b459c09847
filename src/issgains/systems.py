"""Discretized state spaces, the owner of the state weight, the input norm and
the operator norm, and heat-equation system builders on the unit interval,
with the extension operator and the L2 quadrature norm.

``extend`` and ``function_l2_norm`` serve ``fattorini.consistency_diagnostic``
alone; perfbench's traced run times them as ``systems.extend`` and
``systems.function_l2_norm``, so they stay here.
"""

from typing import NamedTuple

import numpy as np

from .config import RunConfig
from .numerics import EigenDecomposition, sym_tridiag_eig

__all__ = [
    "WeightedSpace",
    "ClosedControlSystem",
    "build_heat_dirichlet",
    "extend",
    "function_l2_norm",
]


class _WeightedSpace(NamedTuple):
    n: int
    weight_exponent: int = RunConfig._field_defaults["weight_exponent"]
    input_norm: str = RunConfig._field_defaults["u_norm"]


class WeightedSpace(_WeightedSpace):
    """State space R^{n-1} on the uniform grid of [0, 1] with n intervals
    and n-1 interior nodes, with norm (dx)^(p/2) * l2 and a choice of norm
    on the input space U = R^2; other domain lengths are rescaled via the
    diffusion coefficient.

    ``weight_exponent`` p = 2 is the squared-step weight used in the
    reference figure values; p = 1 is the Riemann weight consistent with
    the L2 limit.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 intervals, got n = {self.n}")
        if self.weight_exponent not in (1, 2):
            raise ValueError(f"weight exponent must be 1 or 2, got {self.weight_exponent}")
        if self.input_norm not in ("euclidean", "max"):
            raise ValueError(f"input norm must be 'euclidean' or 'max', got {self.input_norm!r}")
        return self

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @property
    def interior_nodes(self) -> int:
        return self.n - 1

    def nodes(self) -> np.ndarray:
        """Interior nodes xi_1 .. xi_{n-1}."""
        return np.arange(1, self.n) * self.dx

    @property
    def state_scale(self) -> float:
        """Multiplier turning the plain l2 norm into the weighted norm."""
        return self.dx ** (self.weight_exponent / 2.0)

    def op_norm(self, m) -> float:
        """Operator norm of u -> m u from U into the weighted state space.

        For the max norm on U, m must have two columns c0 and c1.  The
        supremum over the unit infinity-ball is attained at its corners (the
        map is convex), which sign symmetry reduces to (1, 1) and (1, -1):
        max(||c0 + c1||, ||c0 - c1||)."""
        m = np.atleast_2d(np.asarray(m, dtype=float))
        if self.input_norm == "euclidean":
            return self.state_scale * float(np.linalg.norm(m, 2))
        if m.shape[1] != 2:
            raise ValueError(f"the max-norm operator norm takes 2 columns, got {m.shape[1]}")
        c0, c1 = m.T
        corner = np.add(c0, c1)
        plus = float(np.linalg.norm(corner))
        minus = float(np.linalg.norm(np.subtract(c0, c1, out=corner)))
        return self.state_scale * max(plus, minus)

    def input_sample_norm(self, u):
        """The norm in U of each row of the input samples u; a 1-D u is one
        sample."""
        u = np.asarray(u, dtype=float)
        if self.input_norm == "euclidean":
            return np.linalg.norm(u, axis=-1)
        return np.max(np.abs(u), axis=-1)


class ClosedControlSystem(NamedTuple):
    """State-space pair (A, B) of the boundary-closed system.

    A is symmetric tridiagonal, stored by its diagonals; B is (n-1) x 2.
    ``eig`` is the eigendecomposition of A, made by the system's builder.
    """

    space: WeightedSpace
    a_diag: np.ndarray
    a_offdiag: np.ndarray
    b_matrix: np.ndarray
    eig: EigenDecomposition

    @property
    def n(self) -> int:
        return self.space.n

    def eigendecomposition(self) -> EigenDecomposition:
        return self.eig


def build_heat_dirichlet(n: int, a: float,
                         weight_exponent: int = WeightedSpace._field_defaults["weight_exponent"],
                         input_norm: str = WeightedSpace._field_defaults["input_norm"]
                         ) -> ClosedControlSystem:
    """Finite-difference heat system on [0,1] with Dirichlet boundary inputs,
    in the space ``WeightedSpace(n, weight_exponent, input_norm)``
    and with the closed-form eigendecomposition of its generator.

    A = a n^2 tridiag(1, -2, 1) on the n-1 interior nodes; B feeds the two
    boundary values into the first and last rows with weight a n^2.
    """
    space = WeightedSpace(n, weight_exponent, input_norm)
    if not a > 0.0:
        raise ValueError(f"diffusion must be positive, got {a}")
    c = a * n * n
    diag = np.full(n - 1, -2.0 * c)
    off = np.full(n - 2, c)
    b = np.zeros((n - 1, 2))
    b[0, 0] = c
    b[n - 2, 1] = c
    return ClosedControlSystem(space, diag, off, b, sym_tridiag_eig(diag, off))


def extend(x, space: WeightedSpace):
    """Hat-function interpolant through the n - 1 interior values x,
    vanishing at both endpoints. Returns a vectorized callable on [0, 1]."""
    xp = np.concatenate([[0.0], space.nodes(), [1.0]])
    fp = np.concatenate([[0.0], x, [0.0]])

    def interpolant(xi):
        return np.interp(xi, xp, fp)

    return interpolant


# The 4-point Gauss-Legendre rule on [-1, 1] as numpy.polynomial.legendre
# .leggauss(4) gives it, written out so that importing this module does not
# load numpy.polynomial.
_GAUSS_NODES = np.array([-0.8611363115940526, -0.33998104358485626,
                         0.33998104358485626, 0.8611363115940526])
_GAUSS_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464,
                           0.6521451548625464, 0.34785484513745357])


def function_l2_norm(f, panels: int = 2048) -> float:
    """L2(0,1) norm by composite 4-point Gauss quadrature.

    ``f`` must accept an array: it is called once, on all 4 x ``panels``
    nodes, and may return a constant.  The rule is exact for polynomials of
    degree up to 7 on each panel, so n panels integrate the square of an
    n-interval hat interpolant exactly.
    """
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = mid + half * _GAUSS_NODES[:, None]
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
    total = 0.0
    for w, row in zip(_GAUSS_WEIGHTS, vals):
        total += w * float(np.sum(row * row))
    return float(np.sqrt(total * half))
