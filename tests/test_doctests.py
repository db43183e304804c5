"""The docstring examples of every library module."""

import doctest
import importlib

import pytest

MODULES = ("factorization", "formulas", "lacing", "perms", "pipedreams", "poly", "quiver")


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_run_and_pass(name):
    failed, attempted = doctest.testmod(importlib.import_module("qloci." + name))
    # a module whose examples vanished would pass with nothing tried
    assert attempted > 0
    assert failed == 0
