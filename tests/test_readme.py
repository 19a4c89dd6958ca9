"""README's "Estimator settings" table names module constants; check that it matches them."""

import importlib
from pathlib import Path

import pytest

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
