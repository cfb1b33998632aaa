"""Every name a ``repro`` package lists in ``__all__`` exists, and only once.

A stale string in ``__all__`` breaks only ``from package import *``, which
nothing else in the repository runs.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _packages_with_all():
    """``repro`` and every package below it that defines ``__all__``."""
    names = [repro.__name__] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg)
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("package", _packages_with_all())
def test_every_exported_name_exists_once(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert [name for name in exported if not hasattr(module, name)] == []
    assert sorted({name for name in exported if exported.count(name) > 1}) == []
