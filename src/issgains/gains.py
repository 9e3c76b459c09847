"""Spectral constants of the discretized semigroups and assembly of the
ISS gain functions.

The chain is: growth bound (M, omega) and resolvent constant D per system,
the control-operator norm in the negative fractional power space, the
quadrature constants K1 and K2, kappa, and finally the gain pair
beta(s, t) = M exp(-omega t) s and gamma(s) = slope * s.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fattorini import PathSpec, DiagnosticReport
from .numerics import apply_matrix_function, gamma_fn, quad_cauchy_tail, quad_exp_tail, weighted_op_norm
from .systems import ClosedControlSystem

__all__ = [
    "GrowthBound",
    "SectorBound",
    "GainBundle",
    "StabilityError",
    "DEFAULT_THETA",
    "growth_bound",
    "sector_bound",
    "frac_control_norm",
    "k_constants",
    "assemble_gains",
    "lemma_frac_semigroup_check",
]

# Infimum of |cos(theta)|^-1 over the admissible interval for self-adjoint
# negative-definite generators (analyticity angle pi/2).
DEFAULT_THETA = math.pi * (1.0 - 1e-9)


class StabilityError(RuntimeError):
    pass


@dataclass(frozen=True)
class GrowthBound:
    """Semigroup type (m, omega): ||S(t)|| <= m exp(-omega t)."""

    m: float
    omega: float

    def __post_init__(self):
        if self.m < 1.0:
            raise ValueError(f"transient constant must be >= 1, got {self.m}")


@dataclass(frozen=True)
class SectorBound:
    """Resolvent constant d with ||R(lambda, -A)|| <= d / (|lambda| + 1)
    on the scanned path; sector angle 0 for self-adjoint negative-definite
    generators."""

    d: float

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError(f"resolvent constant must be positive, got {self.d}")


@dataclass(frozen=True)
class GainBundle:
    alpha: float
    theta: float
    k1: float
    k2: float
    kappa: float
    frac_norm_limit: float
    mu_e: float
    beta_m: float
    beta_omega: float
    gamma_slope: float

    def beta(self, s: float, t):
        """beta(s, t); ``t`` may be an array of times."""
        return self.beta_m * np.exp(-self.beta_omega * t) * s

    def gamma(self, s: float) -> float:
        return self.gamma_slope * s


def _hurwitz_neg_spectrum(sys: ClosedControlSystem) -> np.ndarray:
    """Ascending spectrum of -A, required positive."""
    mu = sys.neg_spectrum()
    if mu[0] <= 0.0:
        raise StabilityError(f"system n = {sys.n} is not Hurwitz (min eigenvalue of -A is {mu[0]})")
    return mu


def growth_bound(sys: ClosedControlSystem) -> GrowthBound:
    """Type of exp(At): the generator is symmetric, so m = 1 and omega is
    the spectral abscissa magnitude."""
    mu = _hurwitz_neg_spectrum(sys)
    return GrowthBound(m=1.0, omega=float(mu[0]))


def sector_bound(sys: ClosedControlSystem, path: PathSpec) -> SectorBound:
    """Resolvent constant sup (lambda+1) ||R(lambda, A)|| over the real path,
    with mu_min = omega for the symmetric generator."""
    return SectorBound(d=path.resolvent_constant(growth_bound(sys).omega))


def frac_control_norm(sys: ClosedControlSystem, alpha: float) -> float:
    """Norm of (-A)^(alpha - 1) B from U into the weighted state space."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _hurwitz_neg_spectrum(sys)
    eig = sys.eigendecomposition()
    w = apply_matrix_function(eig, lambda lam: (-lam) ** (alpha - 1.0), sys.b_matrix)
    return weighted_op_norm(w, sys.space.state_scale, sys.space.input_norm)


def k_constants(alpha: float, theta: float, gb: GrowthBound, sb: SectorBound) -> tuple[float, float, float]:
    """Quadrature constants K1, K2 and kappa = K1/omega + K2 omega^-alpha Gamma(alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not math.pi / 2 < theta < math.pi:
        raise ValueError(f"theta must lie in (pi/2, pi), got {theta}")
    cos_theta = abs(math.cos(theta))
    if cos_theta == 0.0:
        raise ZeroDivisionError("cos(theta) vanishes")
    g1ma = gamma_fn(1.0 - alpha)
    k1 = gb.omega * gb.m / g1ma * quad_exp_tail(alpha, gb.omega).value
    k2 = sb.d / (g1ma * math.pi * cos_theta) * quad_cauchy_tail(alpha).value
    kappa = k1 / gb.omega + k2 * gb.omega ** (-alpha) * gamma_fn(alpha)
    return k1, k2, kappa


def assemble_gains(alpha: float, theta: float, gb: GrowthBound, sb: SectorBound,
                   frac_norm_limit: float, mu_e: float = 1.0, mu_p: float = 1.0) -> GainBundle:
    if not frac_norm_limit > 0.0:
        raise ValueError("fractional control norm limit must be positive")
    k1, k2, kappa = k_constants(alpha, theta, gb, sb)
    return GainBundle(
        alpha=alpha,
        theta=theta,
        k1=k1,
        k2=k2,
        kappa=kappa,
        frac_norm_limit=frac_norm_limit,
        mu_e=mu_e,
        beta_m=mu_p * mu_e * gb.m,
        beta_omega=gb.omega,
        gamma_slope=mu_e * kappa * frac_norm_limit,
    )


def lemma_frac_semigroup_check(sys: ClosedControlSystem, bundle: GainBundle, t_grid) -> DiagnosticReport:
    """Check ||(-A)^alpha exp(At)|| <= K1 exp(-omega t) + K2 exp(-omega t) t^-alpha
    spectrally on a time grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0):
        raise ValueError("time grid must be strictly positive (the bound is singular at 0)")
    mu = _hurwitz_neg_spectrum(sys)
    alpha = bundle.alpha
    omega = bundle.beta_omega
    worst_excess = -math.inf
    worst_t = t_grid[0]
    for t in t_grid:
        lhs = float(np.max(mu**alpha * np.exp(-mu * t)))
        rhs = bundle.k1 * math.exp(-omega * t) + bundle.k2 * math.exp(-omega * t) * t**-alpha
        excess = lhs / rhs - 1.0
        if excess > worst_excess:
            worst_excess = excess
            worst_t = t
    verdict = "pass" if worst_excess <= 1e-9 else "fail"
    return DiagnosticReport(
        name="frac_semigroup_bound",
        values={"worst_excess": worst_excess, "worst_t": float(worst_t)},
        verdict=verdict,
        detail=f"spectral LHS vs K1/K2 bound over {t_grid.size} times, worst excess {worst_excess:.3g}",
    )
