"""README names module constants and shows CLI command lines; check them against the package."""

import argparse
import importlib
import shlex
from pathlib import Path

import pytest

from hurstlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def settings_rows():
    """(constant, value, module) for each row of the "Estimator settings" table."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("**Estimator settings.**"):].split("\n\n")[1]
    rows = []
    for line in table.splitlines()[2:]:
        constant, value, module = (cell.strip().strip("`") for cell in line.strip("|").split("|")[:3])
        rows.append((constant, value, module))
    return rows


def test_settings_table_is_found():
    assert settings_rows()


@pytest.mark.parametrize("constant, value, module", settings_rows())
def test_settings_row_matches_its_module(constant, value, module):
    name = "hurstlab." + module.removesuffix(".py").replace("/", ".")
    actual = getattr(importlib.import_module(name), constant)
    try:
        documented = float(value)
    except ValueError:
        return  # a described value ("6 db3 taps"): the constant exists, nothing to compare
    assert actual == documented


def cli_examples():
    """Each `hurstlab …` command of README's CLI example block, continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("```sh", text.index("## CLI")):].split("```")[1]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("hurstlab ")]


def test_cli_examples_are_found():
    assert [argv[0] for argv in cli_examples()] == ["synth", "estimate", "bench", "converge", "scan"]


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[0])
def test_cli_example_parses(argv):
    parser = cli._build_parser()
    args = parser.parse_args(argv)
    assert args.command == argv[0]
    # argparse accepts any unique prefix of a flag, so a flag renamed to a
    # longer name would still parse; each flag must be one the command names.
    commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    options = commands.choices[argv[0]]._option_string_actions
    assert [flag for flag in argv if flag.startswith("--") and flag not in options] == []
