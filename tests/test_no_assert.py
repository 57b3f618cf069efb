"""No library check may be an assert statement: ``python -O`` strips them,
and every documented invariant must hold under it as well."""

import ast
from pathlib import Path

import pytest

import ncinv

SOURCES = sorted(Path(ncinv.__file__).resolve().parent.glob("*.py"))


def test_sources_are_found():
    if not any(path.name == "brackets.py" for path in SOURCES):
        pytest.fail(f"no ncinv sources beside {ncinv.__file__}")


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    if found:  # not an assert itself, so the check also runs under python -O
        pytest.fail("assert statement at " + ", ".join(found))
