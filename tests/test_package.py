"""Tests of the package's public surface."""

import importlib
import pkgutil

import pytest

import cosfuse

# The package and each of its modules that declares an ``__all__``.
MODULES = [name for name in ["cosfuse"] + [
    f"cosfuse.{m.name}" for m in pkgutil.iter_modules(cosfuse.__path__)]
    if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_name_in_all(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
