"""Runs the docstring examples of every trish module.

The examples document the public API where it is defined; running them
keeps them true as the code changes.
"""

import doctest
import importlib
import pkgutil

import pytest

import trish

MODULES = ["trish"] + [f"trish.{info.name}" for info in pkgutil.iter_modules(trish.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    results = doctest.testmod(importlib.import_module(name), report=False)
    assert results.failed == 0, f"{results.failed} of {results.attempted} examples failed"


@pytest.mark.parametrize("name", ["trish.core", "trish.oracles", "trish.theory"])
def test_documented_modules_have_examples(name):
    assert doctest.testmod(importlib.import_module(name), report=False).attempted > 0
