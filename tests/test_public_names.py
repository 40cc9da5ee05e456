"""Every name a package module lists in ``__all__`` exists.

A stale entry breaks ``from attnhawkes.<module> import *``, and no other test
imports a module that way.
"""

import importlib
import pkgutil

import attnhawkes


def test_every_listed_public_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(attnhawkes.__path__):
        module = importlib.import_module(f"attnhawkes.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"attnhawkes.{info.name}.__all__ lists {name!r}"
            checked += 1
    assert checked
