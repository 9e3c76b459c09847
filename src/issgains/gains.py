"""Spectral constants of the discretized semigroups and the certification
step that turns a resolution sweep into the ISS gain functions.

Per resolution n: the decay rate omega_n, the resolvent constant D_n (a
sup over the ``PathSpec`` window of the real ray) and the control-operator
norm in the negative fractional power space.  From the sweep records,
``assemble_gains`` takes the limit of each, the quadrature constants K1
and K2, kappa, and finally the gain pair
beta(s, t) = M exp(-omega t) s and gamma(s) = slope * s, whose slope must
reach the exact gain of the discrete heat pair.
"""

import math
from typing import NamedTuple

import numpy as np

from .config import LimitError
from .numerics import apply_matrix_function, quad_cauchy_tail, quad_exp_tail
from .systems import ClosedControlSystem

__all__ = [
    "PathSpec",
    "GainBundle",
    "LIMIT_TOL",
    "THETA",
    "growth_bound",
    "sector_bound",
    "frac_control_norm",
    "k_constants",
    "assemble_gains",
]

# Cauchy tolerance of the fractional-norm limit: the change over the last
# refinement, relative to the last value.
LIMIT_TOL = 1e-3


class _PathSpec(NamedTuple):
    lambda_min: float
    lambda_max: float


class PathSpec(_PathSpec):
    """Window [lambda_min, lambda_max] of the positive real ray over which
    resolvent bounds are taken."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.lambda_min < self.lambda_max:
            raise ValueError("need 0 < lambda_min < lambda_max")
        return self

    def resolvent_constant(self, mu_min: float) -> float:
        """sup over the window of (lambda + 1) ||R(lambda, A)||; for a
        symmetric Hurwitz generator the norm is 1 / (lambda + mu_min), with
        mu_min the smallest eigenvalue of -A.  (lambda + 1) / (lambda + mu_min)
        is monotone in lambda, so the sup sits at an end of the window."""
        lo, hi = self.lambda_min, self.lambda_max
        return max((lo + 1.0) / (lo + mu_min), (hi + 1.0) / (hi + mu_min))


class GainBundle(NamedTuple):
    alpha: float
    theta: float
    k1: float
    k2: float
    kappa: float
    frac_norm_limit: float
    beta_m: float
    beta_omega: float
    gamma_slope: float

    def beta(self, s: float, t: np.ndarray) -> np.ndarray:
        """beta(s, t) at each entry of the array of times ``t``, computed in
        one new array of its shape."""
        values = np.multiply(-self.beta_omega, t)
        np.exp(values, out=values)
        values *= self.beta_m
        values *= s
        return values

    def gamma(self, s: float) -> float:
        return self.gamma_slope * s


def growth_bound(sys: ClosedControlSystem) -> float:
    """Decay rate omega of exp(At), the spectral abscissa magnitude; the
    generator is symmetric, so ||exp(At)|| = exp(-omega t) with M = 1."""
    return float(-sys.eigendecomposition().eigenvalues[-1])


def sector_bound(sys: ClosedControlSystem, path: PathSpec) -> float:
    """Resolvent constant sup (lambda+1) ||R(lambda, A)|| over the real path,
    with mu_min = omega for the symmetric generator."""
    return path.resolvent_constant(growth_bound(sys))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def frac_control_norm(sys: ClosedControlSystem, alpha: float) -> float:
    """Norm of (-A)^(alpha - 1) B from U into the weighted state space."""
    _check_alpha(alpha)
    def power(lam):
        # (-lam) ** (alpha - 1) in one new array: **= is the same ufunc as **.
        mapped = -lam
        mapped **= alpha - 1.0
        return mapped

    w = apply_matrix_function(sys.eigendecomposition(), power, sys.b_matrix)
    return sys.space.op_norm(w)


# The sector angle of K2: the infimum of 1/|cos theta| over the angles (pi/2, pi)
# admissible for the self-adjoint generator; |cos THETA| rounds to exactly 1.0.
THETA = math.pi * (1.0 - 1e-9)


def k_constants(alpha: float, omega: float, d: float) -> tuple[float, float, float]:
    """Quadrature constants K1, K2 and kappa = K1/omega + K2 omega^-alpha Gamma(alpha)
    for the growth bound exp(-omega t) (M = 1) and the resolvent constant d, which
    enter here alone: K1 = omega^alpha I1 / Gamma(1 - alpha) and K2 = d I2 /
    (Gamma(1 - alpha) pi |cos THETA|), with I1, I2 the integrals of alpha alone.
    The lemma behind kappa needs K2 >= (alpha/e)^alpha as t -> 0, false at d = 1 from
    alpha ~ 0.78 (excess +0.014 at 0.8, n = 1000); ``gains`` exits 1 for alpha > 1/2.
    As the one caller of both K integrals, it refuses their alpha for them."""
    _check_alpha(alpha)
    g1ma = math.gamma(1.0 - alpha)
    k1 = omega**alpha * quad_exp_tail(alpha).value / g1ma
    k2 = d / (g1ma * math.pi * abs(math.cos(THETA))) * quad_cauchy_tail(alpha).value
    kappa = k1 / omega + k2 * omega ** (-alpha) * math.gamma(alpha)
    return k1, k2, kappa


def assemble_gains(records, alpha: float, mu_p: float, mu_e: float,
                   weight_exponent: int) -> GainBundle:
    """Certified gains from a resolution sweep (records with ``omega_n``,
    ``d_n`` and ``frac_norm_n``, in increasing n).  Each limit over n is
    taken by a rule that keeps it on the safe side:

    - omega is the last omega_n: omega_n rises toward its limit, so the
      last value underestimates the decay rate;
    - D is mu_p mu_e max D_n: a supremum over the resolutions, scaled by
      the bounds mu_p and mu_e of the projection and extension operators;
    - the fractional norm is the last value, which has no known direction,
      so its change over the last refinement must not exceed LIMIT_TOL
      times its magnitude.  The norm scales as a^alpha with the diffusion
      coefficient a, which only rescales time, so a relative test gives
      every a the verdict of a = 1; an absolute one would pass any sequence
      whose values stay below LIMIT_TOL, diverging ones included;
    - M = 1, since the generator is symmetric and its semigroup contracts
      at rate omega; beta_M = mu_p mu_e M.

    The generator a n^2 tridiag(1, -2, 1) is Hurwitz for every a the config
    accepts: the smallest eigenvalue of its negative is
    omega_n = 4 a n^2 sin^2(pi / 2n) > 0, which does not underflow for
    a >= 1e-100 (``config.A_RANGE``).  No spectrum is checked on the way
    here; the refusal below of a beta_omega that is not finite and positive
    is the one runtime gate.

    The gains are then checked against every heat pair (A_m, B_m) with
    m >= n, the last resolution, in the norm of p = weight_exponent.  The
    pair is positive (A_m Metzler, B_m >= 0), so from x0 = 0 and inputs of
    max norm at most 1 each |x_i(t)| stays below the steady state 1 of
    u = (1, 1): the exact gain is m^(-p/2) sqrt(m - 1), an upper bound with
    Euclidean inputs.  By superposition (beta, gamma) hold for the pair as
    beta_M = mu_p mu_e >= 1 (each mu is at least 1) with
    ||exp(A_m t)|| = exp(-omega_m t), as beta_omega = omega_n <= omega_m
    (omega_m = 4 a m^2 sin^2(pi / 2m) rises with m), and if gamma_slope
    reaches the sup of the gain over m >= n, 1 at p = 1 and sqrt(n - 1)/n
    at p = 2, which is refused otherwise.  The coarser resolutions of the
    sweep, whose omega_m lie below beta_omega, are not covered.

    Raises LimitError when the fractional norm fails its Cauchy check, when
    any of K1, K2, kappa, frac_norm_limit, beta_M, beta_omega and
    gamma_slope is not finite and positive (an overflowing or underflowing
    mu_p mu_e, say), when gamma_slope is below the exact gain, or when a K
    integral fails in ``k_constants``: no certified gain exists then.
    """
    records = list(records)
    if len(records) < 2:
        raise ValueError("need at least 2 records: the limits are taken over the resolutions")
    if weight_exponent not in (1, 2):
        raise ValueError(f"weight exponent must be 1 or 2, got {weight_exponent}")
    omega = records[-1].omega_n
    d = mu_p * mu_e * max(r.d_n for r in records)
    frac_norm_limit = records[-1].frac_norm_n
    frac_delta = abs(frac_norm_limit - records[-2].frac_norm_n)
    if not frac_delta <= LIMIT_TOL * abs(frac_norm_limit):
        raise LimitError(f"frac_norm_limit did not converge: last_delta = "
                         f"{frac_delta:.6g} > {LIMIT_TOL:g} * |{frac_norm_limit:.6g}|")
    k1, k2, kappa = k_constants(alpha, omega, d)
    bundle = GainBundle(
        alpha=alpha,
        theta=THETA,
        k1=k1,
        k2=k2,
        kappa=kappa,
        frac_norm_limit=frac_norm_limit,
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
    n = records[-1].n
    exact = 1.0 if weight_exponent == 1 else math.sqrt(n - 1) / n
    if bundle.gamma_slope < exact:
        raise LimitError(f"gamma_slope = {bundle.gamma_slope:.6g} is below {exact:.6g}, the "
                         f"exact gain of the heat pair at n >= {n} from x0 = 0, so no "
                         "certified gain exists")
    return bundle
