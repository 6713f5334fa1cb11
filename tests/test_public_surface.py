"""Every name the package and its modules export exists, and is exported once.

A stale ``__all__`` entry breaks ``from pushrank.<module> import *``, which
no other test does.
"""

import importlib
import pkgutil

import pytest

import pushrank

MODULES = ["pushrank"] + sorted(
    f"pushrank.{info.name}" for info in pkgutil.iter_modules(pushrank.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), exported
    assert [e for e in exported if not hasattr(module, e)] == []
