"""The benchmark wraps program functions by name; check that those names exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hurstlab import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYER_FUNCTIONS


@pytest.mark.parametrize("module_name, function", [entry[:2] for entry in _layer_functions()])
def test_traced_function_resolves(module_name, function):
    assert callable(getattr(importlib.import_module(module_name), function))


@pytest.mark.parametrize("function", ["mean_convergence_curve", "bin_to_series"])
def test_cli_keeps_swapped_name(function):
    # bench/child.py replaces these on hurstlab.cli to keep their results.
    assert callable(getattr(cli, function))
