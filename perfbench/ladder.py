"""n-ladder: the cost of each spectral stage at a few resolutions.

Usage: python ladder.py N [N ...]

For each n this times, on the default heat system, one tridiagonal
eigendecomposition (eig_s), the fractional control norm with the
decomposition already cached (frac_norm_s), and one exact simulator step
with the decomposition cached (step_us).  Each figure is the median of
several repetitions.  Prints one JSON object of ``ladder.n<N>.<stage>``
values.
"""

import json
import statistics
import sys
import time

import numpy as np

from issgains.gains import frac_control_norm
from issgains.numerics import sym_tridiag_eig
from issgains.simulate import step_exact
from issgains.systems import build_heat_dirichlet

# Repetitions shrink with n so that the largest rung stays near a second.
REPS_AT = ((250, 15), (1000, 5), (10**9, 3))
STEP_REPS = 25


def _median_time(fn, reps):
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def rung(n):
    reps = next(r for limit, r in REPS_AT if n <= limit)
    system = build_heat_dirichlet(n, 1.0)
    eig_s = _median_time(lambda: sym_tridiag_eig(system.a_diag, system.a_offdiag), reps)
    system.eigendecomposition()
    frac_s = _median_time(lambda: frac_control_norm(system, 0.5), reps)
    x = np.linspace(0.0, 1.0, n - 1)
    u = np.array([1.0, 0.0])
    step_s = _median_time(lambda: step_exact(system, x, u, 0.05), STEP_REPS)
    return {f"ladder.n{n}.eig_s": eig_s, f"ladder.n{n}.frac_norm_s": frac_s,
            f"ladder.n{n}.step_us": step_s * 1e6}


def main(argv):
    out = {}
    for n in (int(tok) for tok in argv):
        out.update(rung(n))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
