"""README's "Command line" examples run as shown, and its "Library sketch"
table names only what its modules export."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from ncinv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# The outputs README's comments state, keyed by the command's arguments.
STATED_OUTPUTS = {
    "dim --d 2 --m 4": "3",
    "basis --d 2 --m 2": "a2·a0 - 2·a1·a1 + a0·a2",
    "hilbert --d 2 --max-m 7 --method enumeration": "1,0,1,1,3,6,15,36",
}


def section(heading):
    return README.read_text(encoding="utf-8").split(heading, 1)[1].split("\n## ", 1)[0]


def command_lines():
    """(arguments, comment) for each `ncinv ...` line of the Command line block."""
    block = section("## Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("ncinv "):
            lines.append((command.removeprefix("ncinv ").strip(), comment.strip()))
    return lines


def test_command_lines_are_found():
    commands = [command for command, _comment in command_lines()]
    assert set(STATED_OUTPUTS) <= set(commands)
    assert "rewrite expression.json" in commands


@pytest.mark.parametrize("command, comment", command_lines(),
                         ids=[command for command, _comment in command_lines()])
def test_command_line_runs(command, comment, capsys, tmp_path, monkeypatch):
    # `rewrite expression.json` reads the example from "File formats".
    example = section("### File formats").split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "expression.json").write_text(example, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(command))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if command in STATED_OUTPUTS:
        assert STATED_OUTPUTS[command] in comment
        assert out == STATED_OUTPUTS[command] + "\n"


def library_table():
    rows = []
    for line in section("## Library sketch").splitlines():
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
