"""Discretized state spaces, heat-equation system builders, restriction and
extension operators, and analytic reference solutions on the unit interval.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import EigenDecomposition, sym_tridiag_eig

__all__ = [
    "GridSpec",
    "WeightedSpace",
    "ClosedControlSystem",
    "PreClosureSystem",
    "build_heat_dirichlet",
    "build_preclosure_heat",
    "weighted_state_norm",
    "restrict",
    "extend",
    "analytic_heat_state",
    "function_l2_norm",
    "panels_for",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, 1] with n intervals and n-1 interior nodes; other
    domain lengths are rescaled via the diffusion coefficient."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 intervals, got n = {self.n}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @property
    def interior_nodes(self) -> int:
        return self.n - 1

    def nodes(self) -> np.ndarray:
        """Interior nodes xi_1 .. xi_{n-1}."""
        return np.arange(1, self.n) * self.dx


@dataclass(frozen=True)
class WeightedSpace:
    """State space R^{n-1} with norm (dx)^(p/2) * l2 and a choice of norm
    on the input space U = R^2.

    ``weight_exponent`` p = 2 is the squared-step weight used in the
    reference figure values; p = 1 is the Riemann weight consistent with
    the L2 limit.
    """

    grid: GridSpec
    weight_exponent: int = 2
    input_norm: str = "max"

    def __post_init__(self):
        if self.weight_exponent not in (1, 2):
            raise ValueError(f"weight exponent must be 1 or 2, got {self.weight_exponent}")
        if self.input_norm not in ("euclidean", "max"):
            raise ValueError(f"input norm must be 'euclidean' or 'max', got {self.input_norm!r}")

    @property
    def state_scale(self) -> float:
        """Multiplier turning the plain l2 norm into the weighted norm."""
        return self.grid.dx ** (self.weight_exponent / 2.0)

    def input_sample_norm(self, u):
        """Norm of one input sample u in U, or of each row of a 2-D array of
        samples (an array of norms)."""
        u = np.asarray(u, dtype=float)
        if self.input_norm == "euclidean":
            norms = np.linalg.norm(u, axis=-1)
        else:
            norms = np.max(np.abs(u), axis=-1)
        return float(norms) if u.ndim == 1 else norms


@dataclass(frozen=True)
class ClosedControlSystem:
    """State-space pair (A, B) of the boundary-closed system.

    A is symmetric tridiagonal, stored by its diagonals; B is (n-1) x 2.
    """

    space: WeightedSpace
    a_diag: np.ndarray
    a_offdiag: np.ndarray
    b_matrix: np.ndarray
    _eig_cache: list = field(default_factory=list, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.space.grid.n

    def eigendecomposition(self) -> EigenDecomposition:
        # Memoized; the matrices are immutable after construction.
        if not self._eig_cache:
            self._eig_cache.append(sym_tridiag_eig(self.a_diag, self.a_offdiag))
        return self._eig_cache[0]

    def neg_spectrum(self) -> np.ndarray:
        """Spectrum of -A, ascending, from the memoized decomposition."""
        return -self.eigendecomposition().eigenvalues[::-1]


@dataclass(frozen=True)
class PreClosureSystem:
    """The quintuple describing the discretization before boundary closure:
    stencil with boundary columns, discrete boundary trace, interior
    projection (also the descriptor) and the right inverse of the trace.
    """

    ainit: np.ndarray      # (n-1) x (n+1)
    bop: np.ndarray        # 2 x (n+1)
    restrict_r: np.ndarray  # (n-1) x (n+1)
    bop_rinv: np.ndarray   # (n+1) x 2

    @property
    def n(self) -> int:
        return self.ainit.shape[1] - 1


def build_heat_dirichlet(n: int, a: float, space: WeightedSpace | None = None) -> ClosedControlSystem:
    """Finite-difference heat system on [0,1] with Dirichlet boundary inputs.

    A = a n^2 tridiag(1, -2, 1) on the n-1 interior nodes; B feeds the two
    boundary values into the first and last rows with weight a n^2.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not a > 0.0:
        raise ValueError(f"diffusion must be positive, got {a}")
    if space is None:
        space = WeightedSpace(GridSpec(n))
    if space.grid.n != n:
        raise ValueError(f"space grid n = {space.grid.n} does not match n = {n}")
    c = a * n * n
    diag = np.full(n - 1, -2.0 * c)
    off = np.full(n - 2, c)
    b = np.zeros((n - 1, 2))
    b[0, 0] = c
    b[n - 2, 1] = c
    return ClosedControlSystem(space=space, a_diag=diag, a_offdiag=off, b_matrix=b)


def build_preclosure_heat(n: int, a: float) -> PreClosureSystem:
    """Heat discretization retaining the boundary nodes (pre-closure form)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not a > 0.0:
        raise ValueError(f"diffusion must be positive, got {a}")
    c = a * n * n
    ainit = np.zeros((n - 1, n + 1))
    for i in range(n - 1):
        ainit[i, i] = c
        ainit[i, i + 1] = -2.0 * c
        ainit[i, i + 2] = c
    bop = np.zeros((2, n + 1))
    bop[0, 0] = 1.0
    bop[1, n] = 1.0
    restrict_r = np.zeros((n - 1, n + 1))
    for i in range(n - 1):
        restrict_r[i, i + 1] = 1.0
    # Right inverse of the trace: the linear profiles 1 - xi and xi
    # sampled at all nodes, so that the trace of each column is a unit vector.
    k = np.arange(n + 1, dtype=float)
    bop_rinv = np.column_stack([(n - k) / n, k / n])
    return PreClosureSystem(ainit=ainit, bop=bop, restrict_r=restrict_r, bop_rinv=bop_rinv)


def weighted_state_norm(x, space: WeightedSpace) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (space.grid.interior_nodes,):
        raise ValueError(
            f"state length {x.shape} does not match {space.grid.interior_nodes} interior nodes"
        )
    return space.state_scale * float(np.linalg.norm(x))


def restrict(f, grid: GridSpec) -> np.ndarray:
    """Sample a vectorised function at the interior nodes, in one call."""
    return np.array(np.broadcast_to(f(grid.nodes()), (grid.interior_nodes,)), dtype=float)


def extend(x, grid: GridSpec):
    """Hat-function interpolant through the interior values, vanishing at
    both endpoints. Returns a vectorized callable on [0, 1]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (grid.interior_nodes,):
        raise ValueError(
            f"coefficient length {x.shape} does not match {grid.interior_nodes} interior nodes"
        )
    xp = np.concatenate([[0.0], grid.nodes(), [1.0]])
    fp = np.concatenate([[0.0], x, [0.0]])

    def interpolant(xi):
        return np.interp(xi, xp, fp)

    return interpolant


def analytic_heat_state(modes, a: float, t: float):
    """Exact homogeneous heat solution for a finite sum of sine modes.

    ``modes`` is an iterable of (k, c) pairs; the result is the function
    xi -> sum c exp(-a k^2 pi^2 t) sin(k pi xi).
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    terms = [(int(k), c * np.exp(-a * (k * np.pi) ** 2 * t)) for k, c in modes]

    def state(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for k, amp in terms:
            out = out + amp * np.sin(k * np.pi * xi)
        return out if out.ndim else float(out)

    return state


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)


def panels_for(n: int, minimum: int = 2048) -> int:
    """Smallest multiple of n that is >= ``minimum``: a ``function_l2_norm``
    panel count that puts the kinks of an n-interval interpolant on edges."""
    return -(-minimum // n) * n


def function_l2_norm(f, panels: int = 2048) -> float:
    """L2(0,1) norm by composite 4-point Gauss quadrature.

    ``f`` must accept an array: it is called once, on all 4 x ``panels``
    nodes, and may return a constant.  Choose ``panels`` with
    ``panels_for`` when ``f`` involves piecewise-linear interpolants.
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
