"""issgains benchmark: the real CLI, one command per process, outputs checked.

Usage (from any directory; paths resolve against this file):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name with its unit and sample count, the run's environment, and
(when traced) the full span table of each workload.  A full record goes to
``.perfbench_work/results/`` in the checkout.

Workloads are closed loops with one client: a pass runs the workload's
commands one after another, each in a fresh process writing into a fresh
output directory, and the next pass starts when the previous one ends.  One
process runs at a time and BLAS gets ``nproc`` threads.  ``--seed`` is
passed to every command as ``--seed`` (it seeds the bang-bang input).

  paper-default  sweep, gains, simulate, plot at the reference configuration
                 (n_schedule 250..4000, h 0.05, t_end 3): spectral layers and
                 the RSS peak dominate.
  long-horizon   simulate with n_schedule 250,1000, h 0.0005, t_end 3: 6000
                 exact steps x 3 scenarios on 999 unknowns; the step kernel,
                 margin evaluation and trajectory CSVs dominate.
  diagnostics    check with n_schedule 32,64,128,256, lambda_count 4000:
                 quadrature-norm and resolvent diagnostics, no eigenvectors.
                 Traced only: BENCHMARK.json gates the first two, because
                 this interpreter-bound pass varies too much from run to run
                 on a shared host (its wall_s quartile spread over ten seeds
                 was 8-16 %).  It still runs by hand with --workload.

Untraced run (``--trace 0``): set-up is measured first, then passes repeat
while the next one should still end within ``--seconds`` (at least two).
End-to-end metrics, each a median:

  setup_s      interpreter start plus ``import issgains.cli``, in an
               import-only process (median of several, after one warm-up)
  wall_s       one full pass of the workload's commands
  peak_rss_mb  the largest ru_maxrss among the pass's processes (1e6 bytes)

Printed beside them, not gated: the wall time of each command the workload
runs (sweep_s, gains_s, simulate_s, plot_s, check_s) and fail_ratio
(failed passes / attempted passes).  A pass fails when a command exits
non-zero, an output misses its closed form (see checks.py), or one of its
artifacts differs from the first pass's.

Set-up is not counted against ``--seconds``: it adds about 7 s (one probe
and seven import-only processes) before the passes start.  The passes
themselves keep within ``--seconds`` except that at least two always run.

Traced run (``--trace 1``): the layers are split across the workloads, so
the traced run replays one untraced and one traced pass of every workload,
starting with ``--workload``.  Spans come from traced_cli.py; the n-ladder
from ladder.py.  Each per-layer metric is read from the workload that
exercises its layer (PER_LAYER below); the full span table of every
workload is printed.  ``trace.<workload>.*`` give the traced and untraced
pass wall times, their difference (the tracing overhead) and the sum of
self times.  A per-layer span that its home workload never entered, or a
counter that stayed 0 there, fails that workload's traced pass, so a
renamed or bypassed function cannot read as a perfect gain.

The traced run does not follow ``--seconds``: it always makes its six
passes and the ladder, about 60 s on a 2-vCPU x86-64 host (the
paper-default pair alone is about 29 s), whatever ``--seconds`` says.

``--smoke`` runs the same code paths at tiny sizes (see smoke.py).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
SMOKE_SETUP_SAMPLES = 2
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 170.0
LADDER_N = (250, 1000, 4000)
SMOKE_LADDER_N = (16, 32, 64)

# Every key in README's configuration block except theta (read back from
# gains.kv), output_dir and seed, which the harness sets per pass.
BASE_CONFIG = {
    "n_schedule": "250,500,1000,2000,4000",
    "a": "1.0",
    "alpha": "0.5",
    "lambda_min": "1e-4",
    "lambda_max": "1e4",
    "lambda_count": "400",
    "weight_exponent": "2",
    "u_norm": "max",
    "mu_p": "1.0",
    "mu_e": "1.0",
    "t_end": "3.0",
    "h": "0.05",
}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    config: dict
    smoke: dict


WORKLOADS = {w.name: w for w in (
    Workload("paper-default", ("sweep", "gains", "simulate", "plot"), {},
             {"n_schedule": "16,32,64", "h": "0.25", "t_end": "1.0", "lambda_count": "50"}),
    Workload("long-horizon", ("simulate",),
             {"n_schedule": "250,1000", "h": "0.0005", "t_end": "3.0"},
             {"n_schedule": "16,32", "h": "0.1", "t_end": "1.0", "lambda_count": "50"}),
    Workload("diagnostics", ("check",),
             {"n_schedule": "32,64,128,256", "lambda_count": "4000"},
             {"n_schedule": "8,16", "lambda_count": "50"}),
)}

# Per-layer metric, unit, and the workload that exercises the layer.
PER_LAYER = (
    ("numerics.sym_tridiag_eig.calls", "count", "paper-default"),
    ("numerics.sym_tridiag_eig.self_s", "s", "paper-default"),
    ("numerics.eigvec_bytes_computed", "B", "paper-default"),
    ("numerics.apply_matrix_function.self_s", "s", "paper-default"),
    ("numerics.quad.evals", "count", "paper-default"),
    ("gains.growth_bound.self_s", "s", "paper-default"),
    ("gains.sector_bound.self_s", "s", "paper-default"),
    ("gains.frac_control_norm.total_s", "s", "paper-default"),
    ("gains.k_constants.self_s", "s", "paper-default"),
    ("sweep.run_sweep.calls", "count", "paper-default"),
    ("sweep.run_sweep.total_s", "s", "paper-default"),
    ("sweep.emit_csv.self_s", "s", "paper-default"),
    ("simulate.simulate.calls", "count", "long-horizon"),
    ("simulate.simulate.self_s", "s", "long-horizon"),
    ("simulate.steps", "count", "long-horizon"),
    ("simulate.state_updates", "count", "long-horizon"),
    ("simulate.step_flops_computed", "count", "long-horizon"),
    ("simulate.iss_margin.self_s", "s", "long-horizon"),
    ("systems.function_l2_norm.calls", "count", "diagnostics"),
    ("systems.function_l2_norm.self_s", "s", "diagnostics"),
    ("systems.extend.self_s", "s", "diagnostics"),
    ("systems.build_heat_dirichlet.calls", "count", "diagnostics"),
    ("fattorini.resolvent_gap.self_s", "s", "diagnostics"),
    ("fattorini.sector_diagnostic.self_s", "s", "diagnostics"),
    ("fattorini.consistency_diagnostic.total_s", "s", "diagnostics"),
    ("fattorini.estimate_mu.total_s", "s", "diagnostics"),
    ("svgplot.line_chart.calls", "count", "paper-default"),
    ("svgplot.line_chart.self_s", "s", "paper-default"),
    ("cli.dispatch.self_s", "s", "long-horizon"),
    ("cli.artifact_bytes", "B", "long-horizon"),
)
TRACE_FIELDS = (("wall_s", "s"), ("untraced_wall_s", "s"), ("overhead_s", "s"),
                ("self_sum_s", "s"))
LADDER_FIELDS = (("eig_s", "s"), ("frac_norm_s", "s"), ("step_us", "us"))

CLI_ENTRY = "import sys\nfrom issgains.cli import main\nsys.exit(main())"
ENV_PROBE = """\
import json, platform
import numpy, scipy
import issgains.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


class BenchError(RuntimeError):
    pass


@dataclass
class Proc:
    status: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    wall_s: float = 0.0
    peak_rss_kb: int = 0
    command_s: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    trace_files: list = field(default_factory=list)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(argv, env, log_base):
    """Run one process to completion; its own ru_maxrss comes from wait4."""
    with open(f"{log_base}.out", "wb") as out, open(f"{log_base}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=dict(env, PERFBENCH_T0=repr(t0)))
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss,
                Path(f"{log_base}.out").read_text(), Path(f"{log_base}.err").read_text())


def workload_config(workload, smoke):
    cfg = dict(BASE_CONFIG, **workload.config)
    if smoke:
        cfg.update(workload.smoke)
    return cfg


def cli_argv(command, cfg, seed, out_dir, traced):
    head = [str(BENCH / "traced_cli.py")] if traced else ["-c", CLI_ENTRY]
    args = [command, "--output_dir", str(out_dir), "--seed", str(seed % 2**64)]
    for key, value in cfg.items():
        args += [f"--{key}", value]
    return [sys.executable] + head + args


def _digest_dir(directory):
    """Digest and size of every file written."""
    digests = {}
    total = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        total += len(data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests, total


def run_pass(workload, cfg, seed, pass_dir, env, traced=False):
    out_dir = pass_dir / "out"
    log_dir = pass_dir / "log"
    out_dir.mkdir(parents=True)
    log_dir.mkdir()
    result = Pass()
    procs = {}
    t0 = time.perf_counter()
    for command in workload.commands:
        trace_file = log_dir / f"{command}.spans.json"
        cmd_env = dict(env, PERFBENCH_TRACE_OUT=str(trace_file),
                       PERFBENCH_PASS=pass_dir.name) if traced else env
        proc = spawn(cli_argv(command, cfg, seed, out_dir, traced), cmd_env,
                     log_dir / command)
        procs[command] = proc
        result.command_s[command] = proc.wall_s
        result.peak_rss_kb = max(result.peak_rss_kb, proc.maxrss_kb)
        if traced:
            result.trace_files.append(trace_file)
    result.wall_s = time.perf_counter() - t0
    for command, proc in procs.items():
        if proc.status != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            result.problems.append(f"{command} exited {proc.status}: {tail[0]}")
            continue
        result.problems += [f"{command}: {p}" for p in
                            checks.check_command(command, out_dir, cfg, proc.stdout)]
    result.digests, result.artifact_bytes = _digest_dir(out_dir)
    return result


def measure_setup(env, log_dir, samples):
    """Import-only processes; the first (discarded) also reports versions."""
    probe = spawn([sys.executable, "-c", ENV_PROBE], env, log_dir / "probe")
    if probe.status != 0:
        raise BenchError(f"cannot import issgains: {probe.stderr.strip()[-400:]}")
    versions = json.loads(probe.stdout)
    times = []
    for i in range(samples):
        proc = spawn([sys.executable, "-c", "import issgains.cli"], env, log_dir / f"setup{i}")
        if proc.status != 0:
            raise BenchError(f"import issgains.cli failed: {proc.stderr.strip()[-400:]}")
        times.append(proc.wall_s)
    return times, versions


def source_identity():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(versions, env, workload, seed):
    return dict(source_identity(), **versions, platform=platform.platform(),
                nproc=nproc(), blas_threads=int(env["OPENBLAS_NUM_THREADS"]),
                workload=workload, seed=seed)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, smoke, run_dir, env):
    """Untraced run: set-up samples, then passes for ``seconds``."""
    setup_times, versions = measure_setup(env, run_dir, SMOKE_SETUP_SAMPLES if smoke
                                          else SETUP_SAMPLES)
    cfg = workload_config(workload, smoke)
    passes = []
    t_passes = time.perf_counter()
    while True:
        passes.append(run_pass(workload, cfg, seed, run_dir / f"pass{len(passes)}", env))
        # Start another pass only if it should end within the measured time.
        elapsed = time.perf_counter() - t_passes
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall_s > seconds:
            break
    for p in passes[1:]:
        if p.digests != passes[0].digests:
            p.problems.append("artifacts differ from the first pass on the same seed")

    walls = [p.wall_s for p in passes]
    rss = [p.peak_rss_kb * 1024 / 1e6 for p in passes]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }
    counts = {"setup_s": len(setup_times), "wall_s": len(passes), "peak_rss_mb": len(passes)}
    failed = sum(1 for p in passes if p.problems)
    lines = [f"workload {workload.name}, seed {seed}: {len(passes)} passes "
             f"in {time.perf_counter() - t_passes:.1f} s"]
    for name, m in metrics.items():
        lines.append(f"  {name:<12} {m['value']:.6g} {m['unit']:<3} "
                     f"(median of {counts[name]})")
    for command in workload.commands:
        values = [p.command_s[command] for p in passes]
        lines.append(f"  {command + '_s':<12} {statistics.median(values):.6g} s   "
                     f"(median of {len(values)})")
    lines.append(f"  fail_ratio   {failed}/{len(passes)} (failed passes / attempted passes)")
    for i, p in enumerate(passes):
        for problem in p.problems:
            lines.append(f"  pass {i} FAILED: {problem}")
    record = {
        "environment": environment(versions, env, workload.name, seed),
        "untraced_wall_s": walls,
        "setup_samples_s": setup_times,
        "peak_rss_mb_samples": rss,
        "command_s": {c: [p.command_s[c] for p in passes] for c in workload.commands},
        "problems": [p.problems for p in passes],
    }
    return metrics, len(passes), failed, lines, record


def _span_table(trace_files):
    """Per span name: calls, total and self seconds; plus counters and the
    raw spans of each process (parent indices refer to that process's list)."""
    table = {}
    counters = {}
    self_sum = 0.0
    raw = {}
    for path in trace_files:
        data = json.loads(Path(path).read_text())
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
            self_sum += end - start - child_time[idx]
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
        raw[Path(path).name.split(".")[0]] = spans
    return table, counters, self_sum, raw


def _layer_value(name, table, counters, artifact_bytes):
    """The metric's value, or None when its span or counter never fired."""
    if name == "cli.artifact_bytes":
        return artifact_bytes
    if name in counters:
        return counters[name] or None
    span, _, fld = name.rpartition(".")
    return table[span][fld] if span in table else None


def run_ladder(env, log_dir, smoke):
    sizes = SMOKE_LADDER_N if smoke else LADDER_N
    proc = spawn([sys.executable, str(BENCH / "ladder.py")] + [str(n) for n in sizes],
                 env, log_dir / "ladder")
    if proc.status != 0:
        raise BenchError(f"ladder failed: {proc.stderr.strip()[-400:]}")
    values = json.loads(proc.stdout.strip().splitlines()[-1])
    units = dict(LADDER_FIELDS)
    return {k: metric(v, units[k.rpartition(".")[2]]) for k, v in values.items()}


def trace(first, seed, smoke, run_dir, env):
    """Traced run: an untraced and a traced pass of every workload."""
    order = [first] + [w for w in WORKLOADS.values() if w is not first]
    _, versions = measure_setup(env, run_dir, 0)
    found = {}
    metrics = {}
    lines = []
    passes = []
    spans_out = {}
    for workload in order:
        cfg = workload_config(workload, smoke)
        plain = run_pass(workload, cfg, seed, run_dir / f"{workload.name}-untraced", env)
        traced = run_pass(workload, cfg, seed, run_dir / f"{workload.name}-traced", env,
                          traced=True)
        if traced.digests != plain.digests:
            traced.problems.append("traced artifacts differ from the untraced pass")
        passes += [(f"{workload.name} untraced", plain), (f"{workload.name} traced", traced)]
        table, counters, self_sum, spans = _span_table(traced.trace_files)
        spans_out[workload.name] = spans
        found[workload.name] = (table, counters, traced)
        trace_values = {"wall_s": traced.wall_s, "untraced_wall_s": plain.wall_s,
                        "overhead_s": traced.wall_s - plain.wall_s, "self_sum_s": self_sum}
        for fld, unit in TRACE_FIELDS:
            metrics[f"trace.{workload.name}.{fld}"] = metric(trace_values[fld], unit)
        lines.append(f"traced workload {workload.name}: traced pass {traced.wall_s:.3f} s, "
                     f"untraced pass {plain.wall_s:.3f} s, overhead "
                     f"{traced.wall_s - plain.wall_s:+.3f} s, sum of self times "
                     f"{self_sum:.3f} s")
        lines.append(f"  {'span':<40} {'calls':>7} {'self_s':>10} {'total_s':>10}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:<40} {row['calls']:>7} {row['self_s']:>10.4f} "
                         f"{row['total_s']:>10.4f}")
        for key, value in sorted(counters.items()):
            lines.append(f"  {key:<40} {value:>7}")
        lines.append(f"  {'cli.artifact_bytes':<40} {traced.artifact_bytes:>7}")
    for name, unit, home in PER_LAYER:
        table, counters, traced = found[home]
        value = _layer_value(name, table, counters, traced.artifact_bytes)
        if value is None:
            traced.problems.append(f"{name}: never recorded on {home}")
            value = 0
        metrics[name] = metric(value, unit)
    for label, p in passes:
        for problem in p.problems:
            lines.append(f"{label} pass FAILED: {problem}")
    metrics.update(run_ladder(env, run_dir, smoke))
    failed = sum(1 for _, p in passes if p.problems)
    record = {"environment": environment(versions, env, first.name, seed),
              "problems": [p.problems for _, p in passes], "spans": spans_out}
    return metrics, len(passes), failed, lines, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the harness itself")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "issgains" / "cli.py").is_file():
        print(f"error: no issgains sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Turn SIGTERM into SystemExit so that spawn() stops its child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, lines, record = trace(workload, args.seed, args.smoke,
                                                              run_dir, env)
        else:
            metrics, attempted, failed, lines, record = measure(
                workload, args.seed, args.seconds, args.smoke, run_dir, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("\n".join(lines))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    record["metrics"] = metrics
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
