"""The computable assumption diagnostics of the closed pair (A, B).

They check uniform sectoriality, resolvent convergence and consistency of
the discretized generator on finite probe families, each on the systems
that ``systems.build_heat_dirichlet`` builds.  Strong-operator-topology
conditions are checked empirically on probes, not proven.  Fattorini's
boundary right-inverse conditions are not checked: the stencil
[b0 | A | b1] maps the linear profiles to zero exactly, so a check could
only print rounding.
Every resolvent comes from the spectrum that each system's builder makes,
and the consistency check runs on the module's own probe family, PROBES.
Only the check command loads this module.
"""

import math
from typing import NamedTuple

import numpy as np

from .gains import PathSpec, sector_bound
from .systems import (
    ClosedControlSystem,
    WeightedSpace,
    build_heat_dirichlet,
    extend,
    function_l2_norm,
)

__all__ = [
    "DiagnosticReport",
    "PROBES",
    "restrict",
    "sector_diagnostic",
    "sine_gap",
    "resolvent_gap",
    "consistency_diagnostic",
    "estimate_mu",
]

# resolvent_gap's coarse and fine resolutions and its one sine probe mode.
GAP_RESOLUTIONS = (16, 32)
GAP_PROBE_MODE = 1

# check's probe family (name, f, ||f|| + ||f''||): smooth, zero at both ends,
# with both L2 norms in closed form.  sin(pi xi) has norm 1/sqrt(2) and its
# f'' = -pi^2 sin(pi xi) has pi^2/sqrt(2); xi(1 - xi) has norm 1/sqrt(30) and
# its f'' = -2 has 2.
PROBES = (
    ("sin_pi", lambda x: np.sin(np.pi * x), 1 / math.sqrt(2) + math.pi**2 / math.sqrt(2)),
    ("parabola", lambda x: x * (1 - x), 1 / math.sqrt(30) + 2.0),
)


class DiagnosticReport(NamedTuple):
    """One diagnostic's values, its verdict (pass, warn or fail) and a line
    of detail."""

    name: str
    values: dict
    verdict: str
    detail: str

    def as_text(self) -> str:
        lines = [f"[{self.verdict.upper()}] {self.name}", f"  {self.detail}"]
        for key, value in self.values.items():
            lines.append(f"  {self.name}.{key} = {value:.10g}")
        return "\n".join(lines)


def restrict(f, space: WeightedSpace) -> np.ndarray:
    """Sample a vectorised function at the interior nodes, in one call."""
    return np.array(np.broadcast_to(f(space.nodes()), (space.interior_nodes,)), dtype=float)


def sector_diagnostic(systems, path: PathSpec) -> DiagnosticReport:
    """Per-resolution resolvent constant D_n = sup (lambda+1) ||R(lambda, A_n)||
    over the path, with a uniformity verdict across resolutions; the spread
    of a single resolution is 0."""
    values = {f"D_{sys.n}": sector_bound(sys, path) for sys in systems}
    d_list = list(values.values())
    top_half = d_list[len(d_list) // 2 :]
    spread = (max(top_half) - min(top_half)) / max(top_half)
    verdict = "pass" if spread < 0.01 else "warn"
    return DiagnosticReport(
        name="sector",
        values=values,
        verdict=verdict,
        detail=(
            "resolvent constants on the real ray (finite truncation at "
            f"lambda = {path.lambda_max:g}); spread over the top half of resolutions "
            f"is {spread:.2e}"
        ),
    )


def sine_gap(n: int, a: float, grid: np.ndarray) -> np.ndarray:
    """||E R(lambda, A_n) P s - R(lambda, A) s||_L2 at each lambda of ``grid``,
    for s = sin(k pi xi), k = GAP_PROBE_MODE, and E the hat interpolant.

    P s is an eigenvector of A_n (eigenvalue -mu, from the system's own
    spectrum) and s of A (-nu = -a (k pi)^2).  With p = 1/(lambda + mu),
    q = 1/(lambda + nu), e = E P s - s and x = k pi/(2n), the squared gap is
    p^2 ||e||^2 + 2 p (p - q) <e, s> + (p - q)^2/2, where by the hat mass
    matrix ||e||^2 = 1 - sin^2(x)/3 - (sin(x)/x)^2 and <e, s> =
    -(1 - (sin(x)/x)^2)/2.  Each difference is formed without cancellation:
    with c_m = (-1)^m (2x)^(2m-2)/(2m)!, <e, s> = -sum_{m>=2} c_m and ||e||^2 =
    sum_{m>=3} c_m (6 - m(2m-1))/3, within 6e-16 relative, and p - q =
    p (nu - mu)/(lambda + nu), with nu - mu exact (mu >= nu/2).  The gap is
    within 2e-15 of a 40-digit evaluation from the same mu and nu.  Rounding
    p and q apart costs up to about 20 eps/x^2 (eps = 2^-53), 3e-12 at
    n = 64; the expanded p^2 ||E P s||^2 - 2 p q <E P s, s> + q^2/2 loses 1e-9."""
    k = GAP_PROBE_MODE
    mu = float(-build_heat_dirichlet(n, a).eigendecomposition().eigenvalues[-k])
    nu = a * (k * np.pi) ** 2
    u = (k * math.pi / n) ** 2
    c = u / 24.0
    inner, sq = -c, 0.0
    # For x <= pi/2 the first term left out, m = 19, is below 1e-17 of either sum.
    for m in range(3, 19):
        c *= -u / ((2 * m - 1) * (2 * m))
        inner -= c
        sq += c * (6 - m * (2 * m - 1)) / 3.0
    r = (nu - mu) / (grid + nu)
    return np.sqrt(sq + r * (2.0 * inner + 0.5 * r)) / (grid + mu)


def resolvent_gap(path: PathSpec, count: int, a: float) -> DiagnosticReport:
    """The largest ``sine_gap`` over ``count`` >= 2 log-spaced points (the
    config's ``lambda_count``) of the path's window, at the coarse and fine
    resolutions of GAP_RESOLUTIONS; passes when refinement at least halves
    the gap.  The pair is fixed, not read from ``n_schedule``: the verdict's
    ratio >= 2 assumes one doubling, and a schedule need not double."""
    grid = np.geomspace(path.lambda_min, path.lambda_max, count)
    values = {f"gap_{n}": float(np.max(sine_gap(n, a, grid))) for n in GAP_RESOLUTIONS}
    ratio = values[f"gap_{GAP_RESOLUTIONS[0]}"] / values[f"gap_{GAP_RESOLUTIONS[1]}"]
    values["ratio"] = ratio
    verdict = "pass" if ratio >= 2.0 else "fail"
    return DiagnosticReport(
        name="resolvent_gap",
        values=values,
        verdict=verdict,
        detail=f"sup-over-path resolvent gap on sine probes, refinement ratio {ratio:.3g}",
    )


def consistency_diagnostic(systems) -> DiagnosticReport:
    """Uniform boundedness of the ratios ||E A_n P f|| / (||f|| + ||f''||) over
    the probes of PROBES, which vanish at the boundary and have positive
    scales; only the lifted images are integrated.

    Each probe is sampled and lifted on the system's own grid.  The squared
    lift is quadratic on each of the n grid intervals, so 4-point Gauss on
    n panels, aligned with them, integrates it exactly."""
    values = {}
    for sys in systems:
        for name, f, scale in PROBES:
            lifted = extend(_apply_tridiag(sys, restrict(f, sys.space)), sys.space)
            values[f"strong.{name}_{sys.n}"] = function_l2_norm(lifted, panels=sys.n) / scale
    return DiagnosticReport(
        name="consistency",
        values=values,
        verdict="pass" if max(values.values()) / min(values.values()) <= 10.0 else "fail",
        detail="lifted-generator norm ratios; bounded means max/min <= 10",
    )


def _apply_tridiag(sys: ClosedControlSystem, x: np.ndarray) -> np.ndarray:
    out = sys.a_diag * x
    if sys.a_offdiag.size:
        out[:-1] += sys.a_offdiag * x[1:]
        out[1:] += sys.a_offdiag * x[:-1]
    return out


def estimate_mu(n_list) -> tuple[float, float]:
    """The restriction and extension norms in the L2-consistent weight
    (p = 1) over ``n_list``, both exact.  mu_p = 1: by discrete
    orthogonality, sum_j sin(k pi j/n) sin(l pi j/n) = (n/2) delta_kl for
    0 < k, l < n, so sampling at the interior nodes maps the sine modes below
    n isometrically.  On all of L2 point sampling is unbounded, so no probe
    can bound it.  mu_e = max over n of sqrt((2 + cos(pi/n))/3), the norm of
    the hat extension by the top eigenvalue of the hat mass matrix (Wathen,
    IMA J. Numer. Anal. 7, 1987).  Named for perfbench, which times it."""
    return 1.0, max(math.sqrt((2.0 + math.cos(math.pi / n)) / 3.0) for n in n_list)
