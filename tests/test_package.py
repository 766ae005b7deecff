"""The package's public names: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import sfos

MODULES = ["sfos"] + [f"sfos.{info.name}"
                      for info in pkgutil.iter_modules(sfos.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A stale string in __all__ fails only on ``import *``; look each up.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
