"""Run the benchmark on several seeds and report each metric's spread.

Usage:
    python3 perfbench/spread.py --workloads paper-default,long-horizon,diagnostics \
        --seeds 1-10 [--baseline perfbench/baseline.json]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, for
BENCHMARK.json's ``run_seconds``.  For
each workload it prints every end-to-end metric over the runs: the median,
the quartiles as ``statistics.quantiles(values, n=4)`` gives them, the
interquartile range as a share of the median, and the sample count.  Each
gated metric is shown next to a third of its bound from BENCHMARK.json.
The per-command wall times are printed too (not gated), and so is
fail_ratio over all passes of all runs.

``--baseline`` writes all of this, with each metric's unit and bound, the
seeds, the workloads BENCHMARK.json gates, this invocation and the
environment of the last run (less its per-run workload and seed), to a JSON
file.  Exits 1 if any pass failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed, seconds):
    argv = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed} FAILED its output checks:\n{proc.stdout}")
    record = json.loads((ROOT / ".perfbench_work" / "results" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return result, record


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "samples": len(values), "values": values}


def describe(name, s, unit, note):
    return (f"  {name:<12} median {s['median']:.6g} {unit:<3} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
            f"iqr/median {s['iqr_share']:.4f} n={s['samples']} {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    baseline = {"invocation": ["python3", "perfbench/spread.py"] + sys.argv[1:],
                "run_seconds": seconds, "seeds": seeds,
                "gated_workloads": [w["name"] for w in spec["workloads"]], "workloads": {}}
    total_failed = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in gated}
        command_s = {}
        attempted = failed = 0
        t0 = time.perf_counter()
        for seed in seeds:
            result, record = run_once(spec, workload, seed, seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in gated:
                values[name].append(result["metrics"][name]["value"])
            for command, times in record["command_s"].items():
                command_s.setdefault(f"{command}_s", []).append(statistics.median(times))
            baseline["environment"] = {k: v for k, v in record["environment"].items()
                                       if k not in ("workload", "seed")}
        print(f"{workload}: {len(values['setup_s'])} runs in {time.perf_counter() - t0:.0f} s")
        rows = baseline["workloads"][workload] = {}
        for name, m in gated.items():
            s = rows[name] = dict(summarize(values[name]), unit=m["unit"], better=m["better"],
                                  bound=m["bound"])
            verdict = "ok" if s["iqr_share"] < m["bound"] / 3 else "WIDE"
            print(describe(name, s, m["unit"], f"(bound/3 {m['bound'] / 3:.4f}) {verdict}"))
        for name, times in command_s.items():
            s = rows[name] = dict(summarize(times), unit="s", better="lower", bound=None)
            print(describe(name, s, "s", "(not gated)"))
        rows["fail_ratio"] = {"failed": failed, "attempted": attempted}
        print(f"  fail_ratio   {failed}/{attempted} (failed passes / attempted passes)")
        total_failed += failed
        sys.stdout.flush()
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
