"""Output checks for the benchmark passes.

Every number an issgains command writes is compared against an independent
closed form, never against bytes recorded from an earlier version, so a
change that makes a constant more accurate still passes.  Tolerances are
the ones the acceptance criteria already use for two-route agreement:
1e-8 relative for omega, D, K1, K2 and kappa (quadrature vs closed form),
1e-9 relative for the fractional control norm (spectral vs Gram route).

Closed forms, for the heat system A = a n^2 tridiag(1, -2, 1):

- omega_n = 4 a n^2 sin^2(pi / 2n), the smallest eigenvalue of -A;
- D_n = (lambda_max + 1) / (lambda_max + omega_n), the resolvent constant
  on the real path (omega_n > 1 puts the supremum at lambda_max), and the
  aggregated D is mu_p mu_e max_n D_n, reached at the smallest n;
- for alpha = 1/2, weight exponent 2 and the max input norm,
  ||(-A)^(-1/2) B|| = dx sqrt(max_u u^T B^T (-A)^-1 B u) = sqrt(2a) at
  every n, from the explicit inverse of tridiag(-1, 2, -1);
- K1 = M omega^alpha, from the integral Gamma(1 - alpha) omega^(alpha - 1);
- K2 = D / (Gamma(1 - alpha) |cos theta| sin(pi alpha)), from the integral
  pi / sin(pi alpha);
- kappa = K1 / omega + K2 omega^-alpha Gamma(alpha), and
  gamma_slope = mu_e kappa frac_norm_limit.

Each check takes the output directory, the workload's configuration and
the command's stdout, and returns a list of problems; an empty list passes.
"""

import math
import os
import re

REL_SPECTRAL = 1e-8
REL_FRAC_NORM = 1e-9
SVG_NAMES = ("fig_omegan.svg", "fig_dn.svg", "fig_fracnorm.svg",
             "fig_traj_onesided.svg", "fig_traj_twosided.svg", "fig_traj_bangbang.svg")
TRAJ_LABELS = ("onesided", "twosided", "bangbang")
MARGIN_LINE = re.compile(r"^(\w+): min margin ([-+0-9.eE]+) at t = ")


def omega_exact(n, a):
    return 4.0 * a * n * n * math.sin(math.pi / (2 * n)) ** 2


def _schedule(cfg):
    return [int(tok) for tok in cfg["n_schedule"].split(",")]


def _close(value, expected, rel):
    return abs(value - expected) <= rel * abs(expected)


def _expect(problems, label, value, expected, rel):
    if not _close(value, expected, rel):
        problems.append(f"{label} = {value!r}, closed form {expected!r} (rel tol {rel:g})")


def _frac_norm_closed_form(cfg):
    """sqrt(2a), valid only for the configuration stated in the docstring."""
    if (float(cfg["alpha"]), int(cfg["weight_exponent"]), cfg["u_norm"]) != (0.5, 2, "max"):
        raise ValueError("the fractional-norm closed form needs alpha 0.5, weight 2, max norm")
    return math.sqrt(2.0 * float(cfg["a"]))


def _read(path):
    with open(path) as fh:
        return fh.read()


def check_sweep(out_dir, cfg, stdout):
    problems = []
    path = os.path.join(out_dir, "sweep.csv")
    if not os.path.exists(path):
        return ["sweep.csv missing"]
    lines = _read(path).splitlines()
    if not lines or lines[0] != "n,omegan,Dn,AnalphaBnnorm":
        return [f"sweep.csv header {lines[:1]!r}"]
    schedule = _schedule(cfg)
    if len(lines) - 1 != len(schedule):
        return [f"sweep.csv has {len(lines) - 1} rows for {len(schedule)} resolutions"]
    a = float(cfg["a"])
    lam_max = float(cfg["lambda_max"])
    frac = _frac_norm_closed_form(cfg)
    for line, n in zip(lines[1:], schedule):
        n_tok, omega, d, norm = line.split(",")
        if int(n_tok) != n:
            problems.append(f"sweep.csv row n = {n_tok}, expected {n}")
            continue
        om = omega_exact(n, a)
        _expect(problems, f"omega_{n}", float(omega), om, REL_SPECTRAL)
        _expect(problems, f"D_{n}", float(d), (lam_max + 1.0) / (lam_max + om), REL_SPECTRAL)
        _expect(problems, f"frac_norm_{n}", float(norm), frac, REL_FRAC_NORM)
    return problems


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = float(value)
    return out


def check_gains(out_dir, cfg, stdout):
    problems = []
    kv_path = os.path.join(out_dir, "gains.kv")
    txt_path = os.path.join(out_dir, "gains.txt")
    if not (os.path.exists(kv_path) and os.path.exists(txt_path)):
        return ["gains.kv or gains.txt missing"]
    kv = parse_kv(_read(kv_path))
    txt = {}
    for line in _read(txt_path).splitlines():
        key, value = line.split()
        txt[key] = float(value)
    if txt != kv:
        problems.append("gains.txt and gains.kv disagree")
    needed = ("alpha", "theta", "K1", "K2", "kappa", "frac_norm_limit",
              "beta_M", "beta_omega", "gamma_slope")
    missing = [k for k in needed if k not in kv]
    if missing:
        return problems + [f"gains.kv lacks {missing}"]

    a = float(cfg["a"])
    alpha = float(cfg["alpha"])
    mu_p = float(cfg["mu_p"])
    mu_e = float(cfg["mu_e"])
    lam_max = float(cfg["lambda_max"])
    schedule = _schedule(cfg)
    if kv["alpha"] != alpha:
        problems.append(f"alpha = {kv['alpha']}, configured {alpha}")
    omega = omega_exact(schedule[-1], a)
    d = mu_p * mu_e * (lam_max + 1.0) / (lam_max + omega_exact(schedule[0], a))
    k1 = omega**alpha
    k2 = d / (math.gamma(1.0 - alpha) * abs(math.cos(kv["theta"])) * math.sin(math.pi * alpha))
    kappa = k1 / omega + k2 * omega**-alpha * math.gamma(alpha)
    _expect(problems, "beta_omega", kv["beta_omega"], omega, REL_SPECTRAL)
    _expect(problems, "beta_M", kv["beta_M"], mu_p * mu_e, REL_SPECTRAL)
    _expect(problems, "K1", kv["K1"], k1, REL_SPECTRAL)
    _expect(problems, "K2", kv["K2"], k2, REL_SPECTRAL)
    _expect(problems, "kappa", kv["kappa"], kappa, REL_SPECTRAL)
    _expect(problems, "frac_norm_limit", kv["frac_norm_limit"], _frac_norm_closed_form(cfg),
            REL_FRAC_NORM)
    _expect(problems, "gamma_slope", kv["gamma_slope"],
            mu_e * kv["kappa"] * kv["frac_norm_limit"], REL_SPECTRAL)
    return problems


def check_simulate(out_dir, cfg, stdout):
    """Margins from the command's stdout, and the shape of each trajectory."""
    problems = []
    margins = {}
    for line in stdout.splitlines():
        match = MARGIN_LINE.match(line)
        if match:
            margins[match.group(1)] = float(match.group(2))
    if sorted(margins) != sorted(TRAJ_LABELS):
        return [f"simulate printed margins for {sorted(margins)}"]
    # The two-sided constant case is diagnostic only.
    for label in ("onesided", "bangbang"):
        if not margins[label] >= 0.0:
            problems.append(f"{label} min margin {margins[label]} < 0")
    t_end = float(cfg["t_end"])
    steps = round(t_end / float(cfg["h"]))
    for label in TRAJ_LABELS:
        path = os.path.join(out_dir, f"traj_{label}.csv")
        if not os.path.exists(path):
            problems.append(f"traj_{label}.csv missing")
            continue
        lines = _read(path).splitlines()
        if lines[0] != "t,norm" or len(lines) - 1 != steps + 1:
            problems.append(f"traj_{label}.csv: header {lines[0]!r}, {len(lines) - 1} rows, "
                            f"expected {steps + 1}")
            continue
        t_last = float(lines[-1].split(",")[0])
        if not _close(t_last, t_end, 1e-9):
            problems.append(f"traj_{label}.csv ends at t = {t_last}, expected {t_end}")
    return problems


def check_check(out_dir, cfg, stdout):
    path = os.path.join(out_dir, "check.txt")
    if not os.path.exists(path):
        return ["check.txt missing"]
    text = _read(path)
    if "[FAIL]" in text:
        return ["check.txt reports [FAIL]"]
    if "[PASS]" not in text:
        return ["check.txt reports no [PASS] verdict"]
    return []


def check_plot(out_dir, cfg, stdout):
    problems = []
    for name in SVG_NAMES:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name} missing")
            continue
        text = _read(path)
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            problems.append(f"{name} is not a complete SVG document")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "gains": check_gains,
    "simulate": check_simulate,
    "check": check_check,
    "plot": check_plot,
}


def check_command(command, out_dir, cfg, stdout):
    try:
        return CHECKS[command](out_dir, cfg, stdout)
    except (ValueError, IndexError, OSError) as exc:
        # Output that no longer parses fails the pass instead of the run.
        return [f"cannot read the outputs: {exc!r}"]
