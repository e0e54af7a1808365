"""Every name a ``koopbilevel`` module lists in ``__all__`` must exist, so a
deleted function cannot survive as a stale export."""

import importlib
import pkgutil

import pytest

import koopbilevel

MODULES = sorted(m.name for m in pkgutil.iter_modules(koopbilevel.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"koopbilevel.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
