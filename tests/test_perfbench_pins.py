"""The library names that the benchmark in perfbench/ reads stay defined.

perfbench's files are parsed with ``ast``, never imported or run, so this
check costs no benchmark pass: every span that a per-layer metric or a
counter reads is a function defined in ``issgains.<layer>`` and listed in
that module's ``__all__`` (the only functions traced_cli.py wraps), every
import of ladder.py resolves, and every flag of run.py's ``BASE_CONFIG`` is
a config key."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

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


def _spans() -> list:
    """Every span the per-layer metrics and the counters read."""
    spans = [ast.literal_eval(key) for key in TRACED["COUNTERS"].keys]
    for name, _, _ in ast.literal_eval(RUN["PER_LAYER"]):
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
