"""README's "Library sketch" table names only what its modules export."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_table():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`ncinv"):
            module = cells[0].strip("`")
            rows.append((module, re.findall(r"`(\w+)`", cells[1])))
    return rows


def test_table_is_found():
    modules = [module for module, _names in library_table()]
    assert "ncinv.partitions" in modules and "ncinv.brackets" in modules


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in library_table() for name in names
])
def test_named_in_its_module(module, name):
    assert hasattr(importlib.import_module(module), name)
