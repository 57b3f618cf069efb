"""Run the docstring examples of every ncinv module."""

import doctest
import importlib
import pkgutil

import pytest

import ncinv

MODULES = ["ncinv"] + sorted(
    name for _, name, _ in pkgutil.iter_modules(ncinv.__path__, "ncinv."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_docstring_examples_are_found():
    found = sum(doctest.testmod(importlib.import_module(name)).attempted
                for name in MODULES)
    assert found >= 4
