"""Unit helpers.

The simulator keeps all times in **seconds** (floats), all sizes in **bytes**
(ints) and all rates in **bits per second** (floats).  These helpers exist so
that configuration code reads naturally (``milliseconds(3)``,
``mbps(1.3)``) and so conversions are done in exactly one place.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------


def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds."""
    return float(value) * 1e-3


def microseconds(value: float) -> float:
    """Convert microseconds to seconds."""
    return float(value) * 1e-6


# ---------------------------------------------------------------------------
# Data sizes
# ---------------------------------------------------------------------------


def kilobytes(value: float) -> int:
    """Convert kilobytes (1 KB = 1024 B) to bytes."""
    return int(round(value * 1024))


def megabytes(value: float) -> int:
    """Convert megabytes (1 MB = 1024 KB) to bytes."""
    return int(round(value * 1024 * 1024))


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------


def mbps(value: float) -> float:
    """Megabits per second to bits per second."""
    return float(value) * 1e6


def throughput_mbps(size_bytes: int, elapsed_s: float) -> float:
    """Application throughput in Mbps for ``size_bytes`` delivered in ``elapsed_s``."""
    if elapsed_s <= 0:
        return 0.0
    return (size_bytes * 8.0) / elapsed_s / 1e6
