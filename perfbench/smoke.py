"""Fast self-test of the benchmark harness (tens of seconds, tiny sizes).

Usage: python3 perfbench/smoke.py

Runs every workload's code path through run.py with ``--smoke`` (tiny n, a
few steps, two passes each), the traced-only diagnostics workload included,
then one traced run, and checks that each run passes its output checks and
emits exactly the metric names and units that BENCHMARK.json lists, and
that every per-layer value outside ``trace.*`` (whose overhead may be
negative) is greater than 0.
Finally it copies BENCHMARK.json and this directory into an empty scratch
directory and checks that run.py refuses to run there (non-zero exit, no
result line).  Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BARE = ROOT / ".perfbench_work" / "bare"


def run_bench(root, workload, trace):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "11", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170,
                          check=False)


def _ladder_free(units):
    """Ladder metrics are named by n, which --smoke shrinks; compare the rest."""
    rest = {k: v for k, v in units.items() if not k.startswith("ladder.")}
    ladder = sorted((k.split(".", 2)[2], v) for k, v in units.items() if k.startswith("ladder."))
    return rest, ladder


def check_result(proc, expected, label):
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-600:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: not correct:\n{proc.stdout[-2000:]}")
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if _ladder_free(units) != _ladder_free(expected):
        problems.append(f"{label}: metrics {sorted(units)} differ from BENCHMARK.json")
    return problems, result["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        problems += check_result(run_bench(ROOT, name, 0), end_to_end, name)[0]
    first = spec["workloads"][0]["name"]
    traced_problems, metrics = check_result(run_bench(ROOT, first, 1), per_layer,
                                            f"{first} traced")
    problems += traced_problems
    problems += [f"{first} traced: {name} = {m['value']}" for name, m in metrics.items()
                 if not name.startswith("trace.") and not m["value"] > 0]

    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(BENCH, BARE / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    bare = run_bench(BARE, first, 0)
    if bare.returncode == 0 or bare.stdout.strip():
        problems.append(f"bare directory: exit {bare.returncode}, stdout {bare.stdout!r}")
    shutil.rmtree(BARE, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
