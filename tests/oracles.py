"""Independent reference routes that the tests compare the library against.

They share no code with ``issgains`` beyond reading a system's matrices
or a decomposition's arrays, and applying a decomposition's eigenvectors;
``sine_gap_quadrature``, ``extension_norm_search``, ``probe_ratio_mu`` and
``probe_scale_quadrature``, the routes that ``check`` took before its closed
forms, also drive the library's sampling, extension and L2 norm; and ``close_system``, Fattorini's dense closure of the
quintuple that ``build_preclosure_heat`` makes, the second route to the
pair (A, B) of ``build_heat_dirichlet``, takes its decomposition from
``sym_tridiag_eig``.
Three helpers are no reference routes: ``prefix_states`` reads
the states of a run back from ``simulate`` itself, which keeps only the
last; ``trotter_kato_gaps`` drives the library's exact step, extension and
L2 norm against ``analytic_heat_state``; and ``with_dense_eig`` builds a
non-uniform system around the dense decomposition, which the library's
closed form cannot supply, so that library routes can run on it.  ``WINDOW``
is the resolvent window, the config's default, that the tests pass as a path.
"""

import decimal
import itertools
import math
from typing import NamedTuple

import numpy as np
import scipy.integrate
import scipy.special

from issgains.fattorini import GAP_PROBE_MODE, restrict
from issgains.gains import PathSpec
from issgains.numerics import EigenDecomposition, sym_tridiag_eig
from issgains.simulate import simulate, step_exact
from issgains.systems import (
    ClosedControlSystem,
    WeightedSpace,
    build_heat_dirichlet,
    extend,
    function_l2_norm,
)

WINDOW = PathSpec(1e-4, 1e4)


def a_matrix(sys) -> np.ndarray:
    """The dense generator A of a closed system, assembled from its diagonals."""
    m = np.diag(sys.a_diag)
    if sys.a_offdiag.size:
        m += np.diag(sys.a_offdiag, 1) + np.diag(sys.a_offdiag, -1)
    return m


def dense_tridiag_eig(diag, offdiag) -> EigenDecomposition:
    """Eigendecomposition of any symmetric tridiagonal by numpy's dense
    ``eigh`` on the assembled matrix: ascending eigenvalues and a dense
    matrix of orthonormal eigenvector columns."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    # eigh reads only the lower triangle.
    values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, -1))
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def with_dense_eig(space, a_diag, a_offdiag, b_matrix):
    """The system (A, B) in ``space`` with the ``dense_tridiag_eig`` of A as
    its decomposition: every library route on it reads the dense eigenpairs
    of a generator that the uniform closed form cannot decompose."""
    return ClosedControlSystem(space, a_diag, a_offdiag, b_matrix,
                               dense_tridiag_eig(a_diag, a_offdiag))


class PreClosureSystem(NamedTuple):
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


def build_preclosure_heat(n: int, a: float) -> PreClosureSystem:
    """Heat discretization retaining the boundary nodes (pre-closure form)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not a > 0.0:
        raise ValueError(f"diffusion must be positive, got {a}")
    c = a * n * n
    ainit = c * (np.eye(n - 1, n + 1) - 2.0 * np.eye(n - 1, n + 1, 1) + np.eye(n - 1, n + 1, 2))
    bop = np.zeros((2, n + 1))
    bop[0, 0] = 1.0
    bop[1, n] = 1.0
    restrict_r = np.eye(n - 1, n + 1, 1)
    # Right inverse of the trace: the linear profiles 1 - xi and xi
    # sampled at all nodes, so that the trace of each column is a unit vector.
    k = np.arange(n + 1, dtype=float)
    bop_rinv = np.column_stack([(n - k) / n, k / n])
    return PreClosureSystem(ainit=ainit, bop=bop, restrict_r=restrict_r, bop_rinv=bop_rinv)


def close_system(pre: PreClosureSystem,
                 weight_exponent: int = WeightedSpace._field_defaults["weight_exponent"],
                 input_norm: str = WeightedSpace._field_defaults["input_norm"]
                 ) -> ClosedControlSystem:
    """Boundary closure: restrict the stencil to the kernel of the trace
    and build B = Ainit D0 - A R D0, in the space
    ``WeightedSpace(n, weight_exponent, input_norm)`` and with the
    eigendecomposition of the restricted stencil.

    The product is grouped as (Ainit - A R) D0 so the interior columns
    cancel exactly and B inherits the exact boundary-column entries.
    """
    n = pre.n
    trace_of_rinv = pre.bop @ pre.bop_rinv
    if not np.array_equal(trace_of_rinv, np.eye(2)):
        raise ValueError("boundary trace times its right inverse is not the identity")
    # Kernel of the trace = vanishing boundary nodes, identified with the
    # interior coordinates; the restricted stencil is the interior column block.
    a = pre.ainit[:, 1:n]
    b = (pre.ainit - a @ pre.restrict_r) @ pre.bop_rinv
    diag = np.diag(a).copy()
    off = np.diag(a, 1).copy()
    space = WeightedSpace(n, weight_exponent, input_norm)
    return ClosedControlSystem(space, diag, off, b, sym_tridiag_eig(diag, off))


def frac_control_norm_gram(sys) -> float:
    """Fractional control norm for alpha = 1/2: the squared image norm is the
    quadratic form <Bu, (-A)^{-1} Bu>, evaluated by a dense solve."""
    b = sys.b_matrix
    gram = b.T @ np.linalg.solve(-a_matrix(sys), b)
    if sys.space.input_norm == "euclidean":
        top = float(np.max(np.linalg.eigvalsh(0.5 * (gram + gram.T))))
    else:
        # Sign symmetry: the corners (1, 1) and (1, -1) cover the max-norm ball.
        top = max(float(u @ gram @ u) for u in (np.array([1.0, 1.0]), np.array([1.0, -1.0])))
    return sys.space.state_scale * math.sqrt(top)


def resolvent_constant_scan(path, mu_min: float, count: int) -> float:
    """sup of (lambda + 1) / (lambda + mu_min) over the window, as the
    maximum over a log-spaced grid of ``count`` points on it."""
    grid = np.geomspace(path.lambda_min, path.lambda_max, count)
    return float(np.max((grid + 1.0) / (grid + mu_min)))


def max_norm_corners(m) -> float:
    """Operator norm of u -> m @ u from (R^cols, max norm) into the euclidean
    space, for any column count: the largest image of a corner of the unit
    infinity-ball, the first coordinate fixed to +1 by sign symmetry."""
    m = np.asarray(m, dtype=float)
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=m.shape[1] - 1):
        best = max(best, float(np.linalg.norm(m @ np.array((1.0,) + signs))))
    return best


def resolvent_dense(sys, shift: float, rhs) -> np.ndarray:
    """(shift I - A)^{-1} rhs by a dense LU solve of the assembled matrix."""
    a = a_matrix(sys)
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


def dst1(x) -> np.ndarray:
    """sum_k x_k sin(j k pi/(m+1)), j = 1..m, along axis 0 (unnormalised
    DST-I), every column in one FFT: minus half the imaginary part of the
    FFT of the whole odd extension (0, x, 0, -reversed x) of length 2(m+1).
    The library transforms one column at a time and folds in its scale."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    odd = np.zeros((2 * (m + 1),) + x.shape[1:])
    odd[1:m + 1] = x
    odd[m + 2:] = -x[::-1]
    return -0.5 * np.fft.rfft(odd, axis=0)[1:m + 1].imag


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
    """The dense matrix ``V diag(f(lambda)) V^T`` for a scalar map ``f``,
    called once per eigenvalue: a second route beside the library's single
    call of ``f`` on the whole eigenvalue array."""
    mapped = np.array([f(lam) for lam in eig.eigenvalues], dtype=float)
    if not np.all(np.isfinite(mapped)):
        raise ValueError("matrix function undefined or non-finite at an eigenvalue")
    v = eigenvector_matrix(eig)
    return (v * mapped) @ v.T


def simulate_stepwise(sys, x0, u, h: float, steps: int) -> np.ndarray:
    """Modal states y_0 .. y_steps of exact steps taken one at a time:
    exp(lambda h) y, then + phi (V^T B u_i), the forcing formed anew in each
    step as the sum of u_ij (V^T B)_j over the input columns j in order.
    ``u`` has one row per step, or one row held for every step."""
    eig = sys.eigendecomposition()
    lam, v = eig.eigenvalues, eig.eigenvectors
    decay = np.exp(lam * h)
    phi = np.expm1(lam * h) / lam
    g = v.T @ sys.b_matrix
    u = np.asarray(u, dtype=float)
    states = np.empty((steps + 1, lam.size))
    states[0] = v.T @ np.asarray(x0, dtype=float)
    for i in range(steps):
        row = states[i + 1]
        np.multiply(decay, states[i], out=row)
        sample = u[i if len(u) > 1 else 0]
        row += phi * sum(g[:, j] * sample[j] for j in range(g.shape[1]))
    return states


def prefix_states(sys, x0, u, h: float, steps: int) -> np.ndarray:
    """Modal states y_0 .. y_steps of a run, as simulate computes them: row 0
    is V^T x0, row i the final state of simulate over the first i steps.
    Each prefix run gets one input row past its last step where ``u`` has
    it, which simulate ignores, so that a prefix of a full input is a full
    input too, stepped like the whole run, and not a held row."""
    v = sys.eigendecomposition().eigenvectors
    first = (v.T @ np.asarray(x0, dtype=float))[np.newaxis]
    return np.concatenate([first] + [simulate(sys, x0, u[:i + 1], i * h, h).states
                                     for i in range(1, steps + 1)])


def analytic_heat_state(modes, a: float, t: float):
    """Exact homogeneous heat solution for a finite sum of sine modes.

    ``modes`` is an iterable of (k, c) pairs; the result is the function
    xi -> sum c exp(-a k^2 pi^2 t) sin(k pi xi), which accepts arrays.
    """
    terms = [(int(k), c * np.exp(-a * (k * np.pi) ** 2 * t)) for k, c in modes]

    def state(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for k, amp in terms:
            out = out + amp * np.sin(k * np.pi * xi)
        return out if out.ndim else float(out)

    return state


def trotter_kato_gaps(a: float, modes, t: float, n_list) -> list:
    """L2 distance, per resolution n, between the exact step over [0, t] of
    the sampled initial state, lifted by ``extend``, and the exact heat
    solution ``analytic_heat_state(modes, a, t)``, in the L2-consistent
    weight.  The quadrature takes the smallest multiple of n that is >= 4096
    panels, so the interpolant's kinks fall on panel edges."""
    exact = analytic_heat_state(modes, a, t)
    start = analytic_heat_state(modes, a, 0.0)
    gaps = []
    for n in n_list:
        sys = build_heat_dirichlet(n, a, weight_exponent=1)
        lifted = extend(step_exact(sys, start(sys.space.nodes()), (0.0, 0.0), t), sys.space)
        gaps.append(function_l2_norm(lambda xi: lifted(xi) - exact(xi),
                                     panels=-(-4096 // n) * n))
    return gaps


def sine_gap_quadrature(n: int, a: float, grid) -> np.ndarray:
    """``fattorini.sine_gap`` by quadrature: the discrete resolvent of the
    sampled sine mode k = GAP_PROBE_MODE solved at every lambda of ``grid``
    at once in the eigenbasis, each solution lifted by ``extend``, and its
    L2 distance from the exact resolvent (lambda + a (k pi)^2)^-1 s taken by
    ``function_l2_norm``, one quadrature per lambda, on the smallest multiple
    of n that is >= 2048 panels."""
    k = GAP_PROBE_MODE
    sys = build_heat_dirichlet(n, a)
    eig = sys.eigendecomposition()
    v = eig.eigenvectors
    coeffs = v.T @ np.sin(k * np.pi * sys.space.nodes())
    solutions = v @ ((1.0 / np.subtract.outer(grid, eig.eigenvalues).T) * coeffs[:, None])
    panels = -(-2048 // n) * n
    gaps = []
    for lam, x in zip(grid, solutions.T):
        approx = extend(x, sys.space)
        exact_scale = 1.0 / (lam + a * (k * np.pi) ** 2)
        gaps.append(function_l2_norm(lambda xi: approx(xi) - exact_scale * np.sin(k * np.pi * xi),
                                     panels=panels))
    return np.array(gaps)


def sine_gap_decimal(n: int, a: float, grid) -> list:
    """``fattorini.sine_gap`` in DECIMAL_DIGITS-digit decimal arithmetic, as
    a list of Decimals: the squared gap p^2 ||e||^2 + 2 p (p - q) <e, s> +
    (p - q)^2/2 with ||e||^2 = 1 - sin^2(x)/3 - (sin(x)/x)^2 and
    <e, s> = -(1 - (sin(x)/x)^2)/2 formed as written, and sin x by its Taylor
    series.  The doubles mu (from the system's spectrum), a (k pi)^2,
    x = k pi/(2n) and lambda are taken as exact."""
    k = GAP_PROBE_MODE
    mu = float(-build_heat_dirichlet(n, a).eigendecomposition().eigenvalues[-k])
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        D = decimal.Decimal
        x = D(k * math.pi / (2 * n))
        sin = term = x
        for j in range(1, 30):
            term *= -x * x / ((2 * j) * (2 * j + 1))
            sin += term
        ratio = (sin / x) ** 2
        sq = 1 - sin * sin / 3 - ratio
        inner = -(1 - ratio) / 2
        gaps = []
        for lam in np.asarray(grid, dtype=float).tolist():
            p = 1 / (D(lam) + D(mu))
            d = p - 1 / (D(lam) + D(a * (k * np.pi) ** 2))
            gaps.append((p * p * sq + 2 * p * d * inner + d * d / 2).sqrt())
        return gaps


def extension_norm_search(n: int, vectors: int = 16, seed: int = 0) -> float:
    """A lower bound of the norm of ``extend`` from the L2-consistent weight
    into L2(0, 1): the largest ratio ||E x||_L2 / ||x|| over ``vectors``
    standard normal grid vectors x drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    space = WeightedSpace(n, 1)
    panels = -(-2048 // n) * n
    best = 0.0
    for _ in range(vectors):
        x = rng.standard_normal(space.interior_nodes)
        norm = space.state_scale * np.linalg.norm(x)
        best = max(best, function_l2_norm(extend(x, space), panels=panels) / norm)
    return best


# The second derivatives of the probes of ``fattorini.PROBES``, by name.
PROBE_SECOND_DERIVATIVES = {
    "sin_pi": lambda x: -np.pi**2 * np.sin(np.pi * x),
    "parabola": lambda x: -2.0,
}


def probe_scale_quadrature(f, f2) -> float:
    """||f|| + ||f''|| by Gauss quadrature, for a probe f and its f''."""
    return function_l2_norm(f) + function_l2_norm(f2)


def probe_ratio_mu(samples, n_list) -> float:
    """The largest ratio ||P f|| / ||f||_L2 over the sample functions and the
    resolutions, with P sampling at the interior nodes in the L2-consistent
    weight: a lower estimate of the restriction norm, and no bound, since
    point sampling is unbounded on L2."""
    if not samples:
        raise ValueError("need at least one sample function")
    norms = [function_l2_norm(f) for f in samples]
    if 0.0 in norms:
        raise ValueError("sample function has zero L2 norm")
    mu_p = 0.0
    for n in n_list:
        p1 = WeightedSpace(n, 1)
        for f, f_norm in zip(samples, norms):
            mu_p = max(mu_p, p1.state_scale * np.linalg.norm(restrict(f, p1)) / f_norm)
    return mu_p


def frac_semigroup_excess(sys, bundle, times) -> float:
    """The worst relative excess, over ``times`` > 0, of the spectral norm
    ||(-A)^alpha exp(At)|| = max_mu mu^alpha exp(-mu t) over the bound
    (K1 + K2 t^-alpha) exp(-omega t) of ``bundle``: the largest
    max_mu mu^alpha exp(-(mu - omega) t) / (K1 + K2 t^-alpha) - 1, with
    mu = -lambda over the eigenvalues of A.  Dividing out exp(-omega t)
    keeps both sides finite where omega t is large.  At most 0 where the
    bound holds."""
    mu = -sys.eigendecomposition().eigenvalues
    alpha, omega = bundle.alpha, bundle.beta_omega
    return max(float(np.max(mu**alpha * np.exp(-(mu - omega) * t)))
               / (bundle.k1 + bundle.k2 * t**-alpha) - 1.0 for t in times)


def frac_norm_limit_p1(alpha: float, a: float) -> float:
    """The limit over n of the fractional control norm at p = 1 and the max
    input norm, finite for alpha < 1/4: sqrt(2C(zeta(s) + |eta(s)|)) with
    s = 2 - 4 alpha, C = 2 a^(2 alpha) pi^(4 alpha - 2) and the Dirichlet
    eta(s) = (1 - 2^(1 - s)) zeta(s).  The discrete norms rise toward it at
    rate n^-(1 - 4 alpha)."""
    s = 2.0 - 4.0 * alpha
    zeta = float(scipy.special.zeta(s))
    eta = (1.0 - 2.0 ** (1.0 - s)) * zeta
    c = 2.0 * a ** (2.0 * alpha) * math.pi ** (4.0 * alpha - 2.0)
    return math.sqrt(2.0 * c * (zeta + abs(eta)))


def exact_gain_bracket(n: int, a: float, p: int, u_norm: str) -> tuple[float, float]:
    """The exact gain (lower, upper) from inputs in the norm ``u_norm`` to
    the states, in the norm dx^(p/2) l2, of the heat pair (A_n, B_n) from
    x0 = 0.  A_n is Metzler and B_n >= 0, so exp(A_n t) B_n >= 0 entrywise
    (Farina and Rinaldi, Positive Linear Systems, 2000), and from
    ||u||_inf <= 1 every entry of x(t) is at most that of R 1 = 1 in
    absolute value, where R = -A_n^{-1} B_n = [1 - xi, xi] is the discrete
    harmonic extension of the boundary values.  The weighted norm is
    monotone, so with max-norm inputs the gain is dx^(p/2) sqrt(n - 1) at
    both ends, approached by u = (1, 1).  With Euclidean inputs
    ||u||_inf <= ||u||_2 keeps that upper end, and the steady states give
    the lower end dx^(p/2) ||R||_2: R^T R = [[s, c], [c, s]] with c >= 0 has
    top eigenvalue s + c = sum xi = (n - 1)/2.  R does not depend on a,
    and neither does the bracket."""
    scale = (1.0 / n) ** (p / 2.0)
    upper = scale * math.sqrt(n - 1)
    return (scale * math.sqrt((n - 1) / 2.0) if u_norm == "euclidean" else upper), upper


# Digits of the decimal reference trajectories, far beyond the 17 of a
# double, so that their own rounding is negligible beside one ulp.
DECIMAL_DIGITS = 40


def held_exact(sys, x0, row, h: float, samples) -> list:
    """Modal states y(i h), for each sample index i of ``samples``, of the
    exact solution under the input row ``row`` held from t = 0,

        y(t) = exp(lambda t) y0 + (exp(lambda t) - 1) (g . u) / lambda,

    in DECIMAL_DIGITS-digit decimal arithmetic, with the doubles lambda,
    y0 = V^T x0, g = V^T B, u and h taken as exact and t = i h formed
    exactly.  A list of rows of Decimals."""
    eig = sys.eigendecomposition()
    v = eig.eigenvectors
    y0 = v.T @ np.asarray(x0, dtype=float)
    g = v.T @ sys.b_matrix
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        D = decimal.Decimal
        lam = [D(x) for x in eig.eigenvalues.tolist()]
        start = [D(x) for x in y0.tolist()]
        force = [sum(D(gj) * D(uj) for gj, uj in zip(gk, row)) for gk in g.tolist()]
        rows = []
        for i in samples:
            t = D(i) * D(h)
            state = []
            for lk, y, f in zip(lam, start, force):
                e = (lk * t).exp()
                state.append(e * y + (e - 1) * f / lk)
            rows.append(state)
        return rows


def exact_norm(sys, state) -> decimal.Decimal:
    """sys.space.state_scale * ||state|| of a row of Decimals, in
    DECIMAL_DIGITS-digit arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return decimal.Decimal(sys.space.state_scale) * sum(y * y for y in state).sqrt()


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
