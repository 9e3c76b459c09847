"""Discrete Fattorini closure and the computable assumption diagnostics.

The closure maps the pre-boundary-closure quintuple to the closed pair
(A, B); the diagnostics check uniform sectoriality, resolvent convergence,
consistency of the discretized generator and the boundary right-inverse
conditions on finite probe families.  Strong-operator-topology conditions
are checked empirically on probes, not proven.
Every resolvent comes from the system's memoized eigendecomposition, and
probe functions must accept arrays.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import apply_matrix_function
from .systems import (
    ClosedControlSystem,
    GridSpec,
    PreClosureSystem,
    WeightedSpace,
    build_heat_dirichlet,
    extend,
    function_l2_norm,
    panels_for,
    restrict,
    weighted_state_norm,
)

__all__ = [
    "PathSpec",
    "DiagnosticReport",
    "close_system",
    "sector_diagnostic",
    "resolvent_gap",
    "consistency_diagnostic",
    "right_inverse_gap",
    "estimate_mu",
]


@dataclass(frozen=True)
class PathSpec:
    """Log-spaced grid on the positive real ray used to scan resolvent
    bounds.  The scan applies to the resolvent of the (Hurwitz) generator,
    i.e. stays left of the spectrum of its negative."""

    lambda_min: float = 1e-4
    lambda_max: float = 1e4
    count: int = 400

    def __post_init__(self):
        if not 0.0 < self.lambda_min < self.lambda_max:
            raise ValueError("need 0 < lambda_min < lambda_max")
        if self.count < 2:
            raise ValueError("need at least 2 path points")

    def grid(self) -> np.ndarray:
        return np.geomspace(self.lambda_min, self.lambda_max, self.count)

    def resolvent_constant(self, mu_min: float) -> float:
        """sup over the path of (lambda + 1) ||R(lambda, A)||; for a
        symmetric Hurwitz generator the norm is 1 / (lambda + mu_min), with
        mu_min the smallest eigenvalue of -A."""
        grid = self.grid()
        return float(np.max((grid + 1.0) / (grid + mu_min)))


@dataclass(frozen=True)
class DiagnosticReport:
    name: str
    values: dict
    verdict: str
    detail: str

    def __post_init__(self):
        if self.verdict not in ("pass", "warn", "fail"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "pass" and not self.values:
            raise ValueError("a pass verdict requires nonempty values")

    def as_text(self) -> str:
        lines = [f"[{self.verdict.upper()}] {self.name}", f"  {self.detail}"]
        for key, value in self.values.items():
            lines.append(f"  {self.name}.{key} = {value:.10g}")
        return "\n".join(lines)

    def as_kv(self) -> str:
        lines = [f"{self.name}.verdict = {self.verdict}"]
        for key, value in self.values.items():
            lines.append(f"{self.name}.{key} = {value:.10g}")
        return "\n".join(lines)


def close_system(pre: PreClosureSystem, space: WeightedSpace) -> ClosedControlSystem:
    """Boundary closure: restrict the stencil to the kernel of the trace
    and build B = Ainit D0 - A R D0.

    The product is grouped as (Ainit - A R) D0 so the interior columns
    cancel exactly and B inherits the exact boundary-column entries.
    """
    n = pre.n
    if space.grid.n != n:
        raise ValueError(f"space grid n = {space.grid.n} does not match system n = {n}")
    trace_of_rinv = pre.bop @ pre.bop_rinv
    if not np.array_equal(trace_of_rinv, np.eye(2)):
        raise ValueError("boundary trace times its right inverse is not the identity")
    # Kernel of the trace = vanishing boundary nodes, identified with the
    # interior coordinates; the restricted stencil is the interior column block.
    a = pre.ainit[:, 1:n]
    b = (pre.ainit - a @ pre.restrict_r) @ pre.bop_rinv
    diag = np.diag(a).copy()
    off = np.diag(a, 1).copy()
    return ClosedControlSystem(space=space, a_diag=diag, a_offdiag=off,
                               b_matrix=b, diffusion=pre.diffusion)


def sector_diagnostic(systems, path: PathSpec) -> DiagnosticReport:
    """Per-resolution resolvent constant D_n = sup (lambda+1) ||R(lambda, A_n)||
    over the path, with a uniformity verdict across resolutions."""
    systems = list(systems)
    if len(systems) < 2:
        raise ValueError("need at least 2 systems for a uniformity check")
    values = {}
    for sys in systems:
        mu_min = float(sys.neg_spectrum()[0])
        if mu_min <= 0.0:
            return DiagnosticReport(
                name="sector",
                values={f"D_{sys.n}": float("nan")},
                verdict="fail",
                detail=f"system n = {sys.n} is not Hurwitz (min eigenvalue of -A is {mu_min})",
            )
        values[f"D_{sys.n}"] = path.resolvent_constant(mu_min)
    d_list = list(values.values())
    top_half = d_list[len(d_list) // 2 :]
    spread = (max(top_half) - min(top_half)) / max(top_half)
    verdict = "pass" if spread < 0.01 else "warn"
    values["sup"] = max(d_list)
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


def _resolvent(sys: ClosedControlSystem, shift, rhs: np.ndarray) -> np.ndarray:
    """(shift I - A)^{-1} rhs; for an array of shifts, one column per shift."""
    return apply_matrix_function(sys.eigendecomposition(), lambda lam: 1.0 / (shift - lam), rhs)


def resolvent_gap(n_coarse: int, n_fine: int, path: PathSpec, probe_modes,
                  a: float = 1.0) -> DiagnosticReport:
    """Gap between the lifted discrete resolvent and the exact resolvent on
    sine modes, at two resolutions; passes when refinement at least halves
    the gap."""
    if n_fine < 2 * n_coarse:
        raise ValueError("n_fine must be at least twice n_coarse")
    grid = path.grid()
    values = {}
    for n in (n_coarse, n_fine):
        gs = GridSpec(n)
        sys = build_heat_dirichlet(n, a)
        panels = panels_for(n)
        worst = 0.0
        for k in probe_modes:
            solutions = _resolvent(sys, grid, np.sin(k * np.pi * gs.nodes()))
            for lam, x in zip(grid, solutions.T):
                approx = extend(x, gs)
                exact_scale = 1.0 / (lam + a * (k * np.pi) ** 2)
                gap = function_l2_norm(
                    lambda xi: approx(xi) - exact_scale * np.sin(k * np.pi * xi),
                    panels=panels,
                )
                worst = max(worst, gap)
        values[f"gap_{n}"] = worst
    ratio = values[f"gap_{n_coarse}"] / values[f"gap_{n_fine}"]
    values["ratio"] = ratio
    verdict = "pass" if ratio >= 2.0 else "fail"
    return DiagnosticReport(
        name="resolvent_gap",
        values=values,
        verdict=verdict,
        detail=f"sup-over-path resolvent gap on sine probes, refinement ratio {ratio:.3g}",
    )


def consistency_diagnostic(systems, probes) -> DiagnosticReport:
    """Uniform boundedness of the lifted discrete generator on smooth probes
    vanishing at the boundary, in both the strong and the A-inverse-weighted
    (extrapolation surrogate) readings."""
    strong = {}
    weak = {}
    for sys in systems:
        n = sys.n
        gs = sys.space.grid
        p1 = WeightedSpace(gs, weight_exponent=1)
        for name, f, f2 in probes:
            if abs(f(0.0)) > 1e-12 or abs(f(1.0)) > 1e-12:
                raise ValueError(f"probe {name!r} does not vanish at the boundary")
            samples = restrict(f, gs)
            av = _apply_tridiag(sys, samples)
            f_norm = function_l2_norm(f)
            if f_norm == 0.0:
                strong[f"{name}_{n}"] = 0.0
                weak[f"{name}_{n}"] = 0.0
                continue
            lifted = extend(av, gs)
            f2_norm = function_l2_norm(f2)
            strong[f"{name}_{n}"] = function_l2_norm(lifted, panels=panels_for(n)) / (f_norm + f2_norm)
            # Weak reading: the round trip ||A^{-1} A P f|| / ||f||.
            weak[f"{name}_{n}"] = weighted_state_norm(_resolvent(sys, 0.0, -av), p1) / f_norm
    values = {f"strong.{k}": v for k, v in strong.items()}
    values.update({f"weak.{k}": v for k, v in weak.items()})
    bounded = _bounded(strong) and _bounded(weak)
    return DiagnosticReport(
        name="consistency",
        values=values,
        verdict="pass" if bounded else "fail",
        detail="lifted-generator norm ratios; bounded means max/min <= 10 per probe family",
    )


def _apply_tridiag(sys: ClosedControlSystem, x: np.ndarray) -> np.ndarray:
    out = sys.a_diag * x
    if sys.a_offdiag.size:
        out[:-1] += sys.a_offdiag * x[1:]
        out[1:] += sys.a_offdiag * x[:-1]
    return out


def _bounded(ratios: dict) -> bool:
    vals = [v for v in ratios.values() if v > 0]
    if not vals:
        return True
    return max(vals) / min(vals) <= 10.0


def right_inverse_gap(pre_systems) -> DiagnosticReport:
    """Boundary right-inverse conditions: the lifted right inverse matches
    the linear boundary profiles, the stencil annihilates it, and the
    extrapolation-weighted image vanishes.  All three are exactly zero for
    the heat construction."""
    values = {}
    worst = 0.0
    for pre in pre_systems:
        n = pre.n
        nodes = np.arange(n + 1, dtype=float) / n
        xi = np.linspace(0.0, 1.0, 10 * n + 1)
        interp_gap = 0.0
        for j, profile in enumerate((lambda s: 1.0 - s, lambda s: s)):
            lifted = np.interp(xi, nodes, pre.bop_rinv[:, j])
            interp_gap = max(interp_gap, float(np.max(np.abs(lifted - profile(xi)))))
        stencil_image = pre.ainit @ pre.bop_rinv
        stencil_norm = float(np.max(np.abs(stencil_image)))
        # (B7) surrogate: A^{-1} applied to the stencil image, which is
        # already (numerically) zero.
        sys = close_system(pre, WeightedSpace(GridSpec(n), weight_exponent=1))
        weighted = _resolvent(sys, 0.0, -stencil_image)
        extrap_norm = float(np.max(np.abs(weighted)))
        values[f"interp_gap_{n}"] = interp_gap
        values[f"stencil_image_{n}"] = stencil_norm
        values[f"extrap_image_{n}"] = extrap_norm
        worst = max(worst, interp_gap, stencil_norm, extrap_norm)
    verdict = "pass" if worst <= 1e-12 else "warn"
    return DiagnosticReport(
        name="right_inverse",
        values=values,
        verdict=verdict,
        detail=f"boundary right-inverse conditions, worst deviation {worst:.3g}",
    )


def estimate_mu(samples, n_list, seed: int = 0,
                random_vectors: int = 16) -> tuple[float, float]:
    """Empirical bounds for the restriction and extension operator norms
    (L2-consistent weight), from function samples and random grid vectors."""
    if not samples:
        raise ValueError("need at least one sample function")
    rng = np.random.default_rng(seed)
    mu_p = 0.0
    mu_e = 0.0
    for n in n_list:
        gs = GridSpec(n)
        p1 = WeightedSpace(gs, weight_exponent=1)
        panels = panels_for(n)
        for f in samples:
            f_norm = function_l2_norm(f)
            if f_norm == 0.0:
                raise ValueError("sample function has zero L2 norm")
            mu_p = max(mu_p, weighted_state_norm(restrict(f, gs), p1) / f_norm)
        for _ in range(random_vectors):
            x = rng.standard_normal(gs.interior_nodes)
            x_norm = weighted_state_norm(x, p1)
            mu_e = max(mu_e, function_l2_norm(extend(x, gs), panels=panels) / x_norm)
    return mu_p, mu_e
