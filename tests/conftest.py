"""Shared pytest fixtures.

Adds ``src/`` to ``sys.path`` so the test suite runs even when the package has
not been installed (the repository also ships a ``.pth``-based dev install).
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# tests/ itself is importable too, so test modules in any subdirectory can
# share code via ``from helpers... import ...`` (see tests/helpers/).
_TESTS = os.path.dirname(os.path.abspath(__file__))
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)

import pytest

from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)
