"""Spectral constants of the discretized semigroups and the certification
step that turns a resolution sweep into the ISS gain functions.

Per resolution n: the decay rate omega_n, the resolvent constant D_n and
the control-operator norm in the negative fractional power space.  From the
sweep records, ``assemble_gains`` takes the limit of each, the quadrature
constants K1 and K2, kappa, and finally the gain pair
beta(s, t) = M exp(-omega t) s and gamma(s) = slope * s.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import LimitError
from .fattorini import PathSpec, DiagnosticReport
from .numerics import apply_matrix_function, quad_cauchy_tail, quad_exp_tail, weighted_op_norm
from .systems import ClosedControlSystem

__all__ = [
    "GainBundle",
    "StabilityError",
    "LIMIT_TOL",
    "growth_bound",
    "sector_bound",
    "frac_control_norm",
    "k_constants",
    "assemble_gains",
    "lemma_frac_semigroup_check",
]

# Cauchy tolerance of the fractional-norm limit: the change over the last
# refinement.
LIMIT_TOL = 1e-3


class StabilityError(RuntimeError):
    pass


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


def growth_bound(sys: ClosedControlSystem) -> float:
    """Decay rate omega of exp(At), the spectral abscissa magnitude; the
    generator is symmetric, so ||exp(At)|| = exp(-omega t) with M = 1."""
    return float(_hurwitz_neg_spectrum(sys)[0])


def sector_bound(sys: ClosedControlSystem, path: PathSpec) -> float:
    """Resolvent constant sup (lambda+1) ||R(lambda, A)|| over the real path,
    with mu_min = omega for the symmetric generator."""
    return path.resolvent_constant(growth_bound(sys))


def frac_control_norm(sys: ClosedControlSystem, alpha: float) -> float:
    """Norm of (-A)^(alpha - 1) B from U into the weighted state space."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _hurwitz_neg_spectrum(sys)
    eig = sys.eigendecomposition()
    w = apply_matrix_function(eig, lambda lam: (-lam) ** (alpha - 1.0), sys.b_matrix)
    return weighted_op_norm(w, sys.space.state_scale, sys.space.input_norm)


def k_constants(alpha: float, theta: float, omega: float, d: float) -> tuple[float, float, float]:
    """Quadrature constants K1, K2 and kappa = K1/omega + K2 omega^-alpha Gamma(alpha)
    for the growth bound exp(-omega t) (M = 1) and the resolvent constant d."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not math.pi / 2 < theta < math.pi:
        raise ValueError(f"theta must lie in (pi/2, pi), got {theta}")
    cos_theta = abs(math.cos(theta))
    g1ma = math.gamma(1.0 - alpha)
    k1 = omega / g1ma * quad_exp_tail(alpha, omega).value
    k2 = d / (g1ma * math.pi * cos_theta) * quad_cauchy_tail(alpha).value
    kappa = k1 / omega + k2 * omega ** (-alpha) * math.gamma(alpha)
    return k1, k2, kappa


def assemble_gains(records, alpha: float, theta: float,
                   mu_p: float = 1.0, mu_e: float = 1.0) -> GainBundle:
    """Certified gains from a resolution sweep (records with ``omega_n``,
    ``d_n`` and ``frac_norm_n``, in increasing n).  Each limit over n is
    taken by a rule that keeps it on the safe side:

    - omega is the last omega_n: omega_n rises toward its limit, so the
      last value underestimates the decay rate;
    - D is mu_p mu_e max D_n: a supremum over the resolutions, scaled by
      the bounds mu_p and mu_e of the projection and extension operators;
    - the fractional norm is the last value, which has no known direction,
      so its change over the last refinement must not exceed LIMIT_TOL;
    - M = 1, since the generator is symmetric and its semigroup contracts
      at rate omega; beta_M = mu_p mu_e M.

    Raises LimitError when the fractional norm fails its Cauchy check, or
    when any of K1, K2, kappa, frac_norm_limit, beta_M, beta_omega and
    gamma_slope is not finite and positive (an overflowing or underflowing
    mu_p mu_e, say): no certified gain exists then.
    """
    records = list(records)
    if len(records) < 2:
        raise ValueError("need at least 2 records: the limits are taken over the resolutions")
    omega = records[-1].omega_n
    d = mu_p * mu_e * max(r.d_n for r in records)
    frac_norm_limit = records[-1].frac_norm_n
    frac_delta = abs(frac_norm_limit - records[-2].frac_norm_n)
    if not frac_delta <= LIMIT_TOL:
        raise LimitError(f"frac_norm_limit did not converge: last_delta = "
                         f"{frac_delta:.6g} > {LIMIT_TOL:g}")
    k1, k2, kappa = k_constants(alpha, theta, omega, d)
    bundle = GainBundle(
        alpha=alpha,
        theta=theta,
        k1=k1,
        k2=k2,
        kappa=kappa,
        frac_norm_limit=frac_norm_limit,
        mu_e=mu_e,
        beta_m=mu_p * mu_e,
        beta_omega=omega,
        gamma_slope=mu_e * kappa * frac_norm_limit,
    )
    for name, value in (("K1", k1), ("K2", k2), ("kappa", kappa),
                        ("frac_norm_limit", frac_norm_limit), ("beta_M", bundle.beta_m),
                        ("beta_omega", omega), ("gamma_slope", bundle.gamma_slope)):
        if not 0.0 < value < math.inf:
            raise LimitError(f"{name} = {value:.6g} is not finite and positive, "
                             "so no certified gain exists")
    return bundle


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
