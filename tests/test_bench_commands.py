"""The benchmark runs fixed command lines; check that the CLI still parses them."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hurstlab import cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling reference.py by plain name, and its
    # dataclasses need the module registered while it runs.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    yield module.WORKLOADS
    sys.modules.pop("reference", None)


@pytest.mark.parametrize("name", ["grid", "converge", "trace"])
def test_workload_command_lines_parse(name, workloads, tmp_path):
    inputs = {"capture": str(tmp_path / "capture.csv")}
    commands = workloads[name].commands(tmp_path, 1, 2, inputs)
    assert commands
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
