"""The docstring examples of every mixedchar module, run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import mixedchar

MODULES = sorted(info.name for info in pkgutil.iter_modules(mixedchar.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"mixedchar.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
