"""End-to-end acceptance checks for the certified gain pipeline.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the same condition, so the suite doubles as a human-readable
report and a hard gate.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from issgains.cli import main
from issgains.config import CSV_HEADER
from issgains.gains import THETA, GainBundle, assemble_gains, frac_control_norm, k_constants
from issgains.numerics import quad_cauchy_tail, quad_exp_tail
from issgains.simulate import bang_bang, iss_margin, simulate
from issgains.sweep import run_sweep
from issgains.systems import build_heat_dirichlet
from oracles import (
    WINDOW,
    a_matrix,
    build_preclosure_heat,
    close_system,
    frac_control_norm_gram,
    frac_semigroup_excess,
    prefix_states,
    trotter_kato_gaps,
)

SCHEDULE = (250, 500, 1000, 2000, 4000)

REFERENCE_BUNDLE = GainBundle(
    alpha=0.5, theta=THETA, k1=3.1408, k2=0.5626, kappa=0.6359,
    frac_norm_limit=1.4136, beta_m=1.0, beta_omega=9.8647,
    gamma_slope=0.8989,
)


@pytest.fixture(scope="module")
def records():
    return run_sweep(SCHEDULE, 1.0, 0.5, WINDOW)


def _report(num, label, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_growth_bound(records):
    omega = records[-1].omega_n
    ok = abs(omega - math.pi**2) <= 1e-3 and omega >= 9.8647
    _report(1, f"omega_4000 = {omega:.7f} within 1e-3 of pi^2 and >= 9.8647", ok)


def test_criterion_02_sector_constant(records):
    d = records[-1].d_n
    ok = abs(d - 0.9991) <= 2e-4 and all(r.d_n < 1.0 for r in records)
    _report(2, f"D_4000 = {d:.6f} = 0.9991 +/- 2e-4 and all D_n < 1", ok)


def test_criterion_03_fractional_control_norm(records):
    in_band = all(1.410 <= r.frac_norm_n <= 1.4143 for r in records)
    worst_gap = 0.0
    for n in (250, 1000):
        sys = build_heat_dirichlet(n, 1.0)
        spectral = frac_control_norm(sys, 0.5)
        gram = frac_control_norm_gram(sys)
        worst_gap = max(worst_gap, abs(spectral - gram) / gram)
    ok = in_band and worst_gap <= 1e-9
    _report(3, f"frac norm in [1.410, 1.4143] for n >= 250, Gram gap {worst_gap:.2e} <= 1e-9", ok)


def test_criterion_04_gain_constants(records):
    k1, k2, kappa = k_constants(0.5, 9.8647, 0.9991)
    bundle = assemble_gains(records, 0.5, 1.0, 1.0, weight_exponent=2)
    ok = (abs(k1 - 3.1408) <= 1e-3
          and 0.5620 <= k2 <= 0.5645
          and 0.6350 <= kappa <= 0.6370
          and 0.896 <= bundle.gamma_slope <= 0.903)
    _report(4, f"K1 = {k1:.5f}, K2 = {k2:.5f}, kappa = {kappa:.5f}, "
               f"gamma slope = {bundle.gamma_slope:.5f}", ok)


def test_criterion_05_quadrature_closed_forms():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0.1, 50.0)
        exp_exact = math.gamma(1.0 - alpha)
        cauchy_exact = math.pi / math.sin(math.pi * alpha)
        # omega enters K1 = omega^alpha (the integral over its closed form) in
        # k_constants alone.
        k1_exact = omega**alpha
        worst = max(worst,
                    abs(quad_exp_tail(alpha).value - exp_exact) / exp_exact,
                    abs(quad_cauchy_tail(alpha).value - cauchy_exact) / cauchy_exact,
                    abs(k_constants(alpha, omega, 1.0)[0] - k1_exact) / k1_exact)
    _report(5, f"20-point quadrature sample, worst relative gap {worst:.2e} <= 1e-8",
            worst <= 1e-8)


def test_criterion_06_boundary_closure_equivalence():
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for n in range(2, 65):
            direct = build_heat_dirichlet(n, a)
            closed = close_system(build_preclosure_heat(n, a))
            worst = max(worst,
                        np.max(np.abs(a_matrix(closed) - a_matrix(direct))),
                        np.max(np.abs(closed.b_matrix - direct.b_matrix)))
    _report(6, f"closure equals direct builder, max entry gap {worst:g} == 0", worst == 0.0)


def test_criterion_07_fractional_semigroup_bound():
    times = np.geomspace(1e-4, 10.0, 200)
    ok = True
    for n in (100, 1000):
        sys = build_heat_dirichlet(n, 1.0)
        # A sweep that ends at sys, so that omega is the decay rate of sys.
        bundle = assemble_gains(run_sweep([n // 2, n], 1.0, 0.5, WINDOW), 0.5, 1.0, 1.0,
                                weight_exponent=2)
        ok = ok and frac_semigroup_excess(sys, bundle, times) <= 1e-9
    _report(7, "fractional semigroup bound holds on 200 log times, n in {100, 1000}", ok)


def test_criterion_08_semigroup_convergence_order():
    g16, g32, g64 = trotter_kato_gaps(1.0, [(1, 1.0)], 0.1, [16, 32, 64])
    r1 = g16 / g32
    r2 = g32 / g64
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    _report(8, f"L2 gap ratios {r1:.3f}, {r2:.3f} in [3, 5] at t = 0.1", ok)


def test_criterion_09_empirical_iss_margins():
    n = 1000
    sys = build_heat_dirichlet(n, 1.0, weight_exponent=1, input_norm="max")
    x0 = np.zeros(n - 1)

    traj = simulate(sys, x0, np.array([[1.0, 0.0]]), 3.0, 0.05)
    margin_const, _ = iss_margin(traj, REFERENCE_BUNDLE, 0.0)

    traj2 = simulate(sys, x0, np.array([[1.0, 1.0]]), 3.0, 0.05)
    margin_two, _ = iss_margin(traj2, REFERENCE_BUNDLE, 0.0)

    n_bb = 100
    sys_bb = build_heat_dirichlet(n_bb, 1.0, weight_exponent=1, input_norm="max")
    worst = math.inf
    for seed in range(50):
        # The one-column input drives the end seed % 2 alone.
        u = bang_bang(60, seed=seed, columns=1)
        driven = sys_bb._replace(b_matrix=sys_bb.b_matrix[:, [seed % 2]])
        bb = simulate(driven, np.zeros(n_bb - 1), u, 3.0, 0.05)
        margin, _ = iss_margin(bb, REFERENCE_BUNDLE, 0.0)
        worst = min(worst, margin)

    ok = (worst > 0.0
          and abs(margin_const - (0.8989 - 1.0 / math.sqrt(3.0))) <= 2e-3)
    _report(9, f"worst bang-bang margin {worst:.4f} > 0, one-sided margin "
               f"{margin_const:.4f} = 0.3215 +/- 2e-3 "
               f"(two-sided diagnostic: {margin_two:+.4f}, not asserted)", ok)


def test_criterion_10_simulator_exactness():
    n = 100
    sys = build_heat_dirichlet(n, 1.0, weight_exponent=1, input_norm="max")
    v = sys.eigendecomposition().eigenvectors
    zero_input = np.zeros((1, 2))

    def node_states(x0, u, h, steps):
        # x(t_i) = V y(t_i) for i = 0..steps in node values.
        return (v @ prefix_states(sys, x0, u, h, steps).T).T

    worst = 0.0
    for k in (1, 2, 5):
        x0 = np.sin(k * np.pi * sys.space.nodes())
        states = node_states(x0, zero_input, 0.01, 50)
        lam = -4.0 * n**2 * math.sin(k * math.pi / (2 * n)) ** 2
        scale = np.linalg.norm(x0)
        for i, state in enumerate(states):
            exact = math.exp(lam * i * 0.01) * x0
            worst = max(worst, np.linalg.norm(state - exact) / scale)

    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(n - 1)
    u = bang_bang(50, seed=42)
    both = node_states(x0, u, 0.05, 50)
    free = node_states(x0, zero_input, 0.05, 50)
    forced = node_states(np.zeros(n - 1), u, 0.05, 50)
    scale = max(1.0, float(np.max(np.abs(both))))
    sup_gap = float(np.max(np.abs(both - free - forced))) / scale

    ok = worst <= 1e-10 and sup_gap <= 1e-10
    _report(10, f"eigenvector decay gap {worst:.2e}, superposition gap {sup_gap:.2e}, "
                "both <= 1e-10", ok)


def test_criterion_11_reproducible_sweep_artifact(tmp_path):
    blobs = []
    for run in range(2):
        out_dir = tmp_path / f"run_{run}"
        # The command's own "wrote" line stays out of the report.
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--n_schedule", "16,32,64", "--output_dir", str(out_dir)]) == 0
        blobs.append((out_dir / "sweep.csv").read_bytes())
    header = blobs[0].decode().splitlines()[0]
    ok = blobs[0] == blobs[1] and header == CSV_HEADER
    _report(11, f"two sweep runs byte-identical, header {header!r}", ok)
