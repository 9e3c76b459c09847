"""The library names that the benchmark in perfbench/ reads stay defined
and reached.

perfbench's files are parsed with ``ast``, never imported, so this check
costs no benchmark pass: every span that a per-layer metric or a counter
reads is a function defined in ``issgains.<layer>`` and listed in that
module's ``__all__`` (the only functions traced_cli.py wraps), every import
of ladder.py resolves, and every flag of run.py's ``BASE_CONFIG`` is a
config key.  Each ``Workload(...)`` of run.py is also run in-process at its
smoke config, with the functions wrapped as traced_cli.py wraps them and
its counting functions compiled from its source: every span a per-layer
metric reads on that workload is entered, and every counter homed there
is non-zero, so a bypassed function fails here and not only in smoke.py."""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

from issgains.cli import main
from issgains.config import PARSERS

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assignments(filename: str) -> dict:
    """The module-level ``NAME = <expr>`` nodes of a perfbench file."""
    tree = ast.parse((BENCH / filename).read_text(), filename)
    return {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


RUN = _assignments("run.py")
TRACED = _assignments("traced_cli.py")
LAYERS = ast.literal_eval(TRACED["LAYERS"])
COUNTER_NAMES = ast.literal_eval(TRACED["COUNTER_NAMES"])
PER_LAYER = ast.literal_eval(RUN["PER_LAYER"])


def _spans() -> list:
    """Every span the per-layer metrics and the counters read."""
    spans = [ast.literal_eval(key) for key in TRACED["COUNTERS"].keys]
    for name, _, _ in PER_LAYER:
        # As run.py's _layer_value reads them: the file sizes, a counter,
        # or else a field of the span the name ends in.
        if name != "cli.artifact_bytes" and name not in COUNTER_NAMES:
            spans.append(name.rpartition(".")[0])
    return sorted(set(spans))


def _ladder_imports() -> list:
    tree = ast.parse((BENCH / "ladder.py").read_text(), "ladder.py")
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module.startswith("issgains.")
            for alias in node.names]


def test_pins_are_found():
    # An empty list would pass every check below.
    assert len(_spans()) >= 20
    assert len(_ladder_imports()) == 4


@pytest.mark.parametrize("span", _spans())
def test_span_is_a_traced_function(span):
    layer, _, name = span.partition(".")
    assert layer in LAYERS
    module = importlib.import_module(f"issgains.{layer}")
    assert name in module.__all__
    obj = getattr(module, name)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__


@pytest.mark.parametrize("module, name", _ladder_imports())
def test_ladder_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_base_config_keys_are_config_keys():
    keys = ast.literal_eval(RUN["BASE_CONFIG"]).keys()
    assert keys and set(keys) <= set(PARSERS)


def _workloads() -> list:
    """Each ``Workload(...)`` call of run.py, as a dict of its fields."""
    tree = ast.parse((BENCH / "run.py").read_text(), "run.py")
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Workload")
    fields = [stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
    return [{**dict(zip(fields, map(ast.literal_eval, node.args))),
             **{kw.arg: ast.literal_eval(kw.value) for kw in node.keywords}}
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload"]


def _counting_functions() -> dict:
    """traced_cli.py's COUNTERS, span -> counting function, compiled from
    its source without importing the script."""
    tree = ast.parse((BENCH / "traced_cli.py").read_text(), "traced_cli.py")
    counters = TRACED["COUNTERS"]
    names = {value.id for value in counters.values}
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names]
    namespace = {}
    exec(compile(ast.Module(body=defs, type_ignores=[]), "traced_cli.py", "exec"), namespace)
    return {ast.literal_eval(key): namespace[value.id]
            for key, value in zip(counters.keys, counters.values)}


WORKLOADS = _workloads()


def test_every_home_is_a_workload():
    assert {home for _, _, home in PER_LAYER} <= {w["name"] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w["name"] for w in WORKLOADS])
def test_workload_reaches_its_pins(workload, tmp_path, monkeypatch):
    entered = set()
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    counting = _counting_functions()

    def wrap(span, fn):
        count = counting.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered.add(span)
            result = fn(*args, **kwargs)
            if count is not None:
                count(counters, result)
            return result

        return traced

    # As traced_cli.py's Tracer.install: every public function of a layer is
    # wrapped, and the wrapper bound under every name that refers to it.
    modules = [importlib.import_module(f"issgains.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[obj] = wrap(f"{layer}.{attr}", obj)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                monkeypatch.setattr(module, attr, wrappers[obj])

    cfg = {**ast.literal_eval(RUN["BASE_CONFIG"]), **workload["config"], **workload["smoke"]}
    flags = [arg for key, value in cfg.items() for arg in (f"--{key}", value)]
    for command in workload["commands"]:
        assert main([command, "--output_dir", str(tmp_path), "--seed", "1", *flags]) == 0

    pins = [name for name, _, home in PER_LAYER if home == workload["name"]]
    assert pins
    for name in pins:
        if name == "cli.artifact_bytes":
            assert sum(path.stat().st_size for path in tmp_path.iterdir()) > 0
        elif name in COUNTER_NAMES:
            assert counters[name] > 0, name
        else:
            assert name.rpartition(".")[0] in entered, name
