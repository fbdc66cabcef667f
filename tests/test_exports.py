"""Every name a module exports through __all__ resolves, so a stale export
fails here and not first at `from lemnatomic import *`."""

import importlib
import pkgutil

import pytest

import lemnatomic

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(lemnatomic.__path__, "lemnatomic."))


@pytest.mark.parametrize("name", ["lemnatomic"] + SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

