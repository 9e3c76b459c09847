"""Run one issgains CLI command with a span around every public layer call.

Usage: python traced_cli.py <command> [--key value ...]

Environment: PERFBENCH_TRACE_OUT names the JSON file the spans are written
to, PERFBENCH_PASS is the pass id stored with each span, and PERFBENCH_T0
is the time.perf_counter() reading of the parent just before it spawned
this process (CLOCK_MONOTONIC, so it is comparable across processes).

Every function listed in a layer module's ``__all__`` is wrapped, and the
wrapper is bound under every name that refers to it in any layer module, so
a call through a ``from .x import y`` alias is traced too.  Private helpers
are not wrapped; their time counts toward their public caller's self time.
Two extra spans, ``process.startup`` (spawn to first line of this script)
and ``process.import`` (importing issgains and installing the wrappers),
make the self times of one process add up to its wall time.
"""

import json
import os
import sys
import time

T_SCRIPT = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402

LAYERS = ("numerics", "systems", "fattorini", "gains", "sweep", "simulate", "svgplot", "cli")


def _count_eig(counters, result):
    counters["numerics.eigvec_bytes_computed"] += int(result.eigenvectors.nbytes)


def _count_quad(counters, result):
    counters["numerics.quad.evals"] += int(result.evaluations)


def _count_simulate(counters, result):
    steps = int(result.times.size) - 1
    unknowns = int(result.states.shape[1])
    counters["simulate.steps"] += steps
    counters["simulate.state_updates"] += steps * unknowns
    counters["simulate.step_flops_computed"] += steps * 4 * unknowns * unknowns


# Counts derived from the returned arrays, keyed by the span they belong to.
COUNTERS = {
    "numerics.sym_tridiag_eig": _count_eig,
    "numerics.quad_exp_tail": _count_quad,
    "numerics.quad_cauchy_tail": _count_quad,
    "simulate.simulate": _count_simulate,
}
COUNTER_NAMES = ("numerics.eigvec_bytes_computed", "numerics.quad.evals", "simulate.steps",
                 "simulate.state_updates", "simulate.step_flops_computed")


class Tracer:
    """In-memory span list: [name, start, end, parent index, pass id]."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)

    def record(self, name, start, end):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, end, parent, self.pass_id])

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.record(name, time.perf_counter(), None)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(self.counters, result)
            return result

        return traced

    def install(self, modules):
        wrappers = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def main():
    tracer = Tracer(os.environ["PERFBENCH_PASS"])
    tracer.record("process.startup", float(os.environ["PERFBENCH_T0"]), T_SCRIPT)
    t_import = time.perf_counter()
    modules = {layer: importlib.import_module(f"issgains.{layer}") for layer in LAYERS}
    tracer.install(modules)
    tracer.record("process.import", t_import, time.perf_counter())
    try:
        return modules["cli"].main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
