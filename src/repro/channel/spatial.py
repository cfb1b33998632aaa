"""Uniform-grid spatial index over the static PHYs of a channel.

:meth:`~repro.channel.medium.WirelessChannel.broadcast` historically budgeted
every registered PHY for every frame — O(N) per send, which caps scenarios at
tens of nodes.  :class:`UniformGridIndex` buckets PHYs into square cells of a
given size once, when it is built, and answers *"who could possibly hear a
frame sent from here?"* by enumerating only the cells that intersect the
channel's reach, the conservative max-range disc of
:meth:`~repro.channel.propagation.IndoorPropagation.max_range_m`, so
building a delivery plan costs O(neighbours).

The index is deliberately *not* trusted with physics: it returns a candidate
**superset** — every indexed PHY whose position lies within the queried
range is guaranteed to be a candidate (plus possibly a few just outside it,
from partially covered cells).  The channel still evaluates the exact link
budget for every candidate and culls receivers below the detect floor, so
grid-indexed and full-scan runs produce byte-identical outcomes;
``tests/integration/test_spatial_determinism.py`` pins that contract.

The PHYs it indexes never move: the channel builds a grid only while none
of its registered PHYs carries a mobility model, and drops it whenever a
PHY registers.  Candidates come back in registration order — sorted by the
channel's registration index (``phy.channel_index``), never by cell hash or
set iteration — so deliveries are scheduled in exactly the order the full
scan would use.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phy.device import Phy

Cell = Tuple[int, int]


class UniformGridIndex:
    """Square-cell spatial hash with registration-ordered candidate queries."""

    __slots__ = ("cell_size_m", "_cells")

    def __init__(self, cell_size_m: float, phys: Iterable["Phy"]) -> None:
        """Bucket ``phys`` (static, in registration order) into cells."""
        if not (cell_size_m > 0.0) or math.isinf(cell_size_m):
            raise ConfigurationError(
                f"cell size must be positive and finite, got {cell_size_m}")
        self.cell_size_m = cell_size_m
        # cell -> PHYs, each list in registration order.
        self._cells: Dict[Cell, List["Phy"]] = {}
        for phy in phys:
            self._cells.setdefault(self.cell_for(phy.position_at(0.0)), []).append(phy)

    def candidates(self, origin: tuple, range_m: float) -> List["Phy"]:
        """Indexed PHYs whose position may lie within ``range_m`` of ``origin``.

        Returns a superset of the in-range PHYs, in registration order.  The
        caller is expected to evaluate the exact link budget per candidate;
        the index only prunes PHYs that are provably out of reach.
        """
        cell_size = self.cell_size_m
        min_cx = math.floor((origin[0] - range_m) / cell_size)
        max_cx = math.floor((origin[0] + range_m) / cell_size)
        min_cy = math.floor((origin[1] - range_m) / cell_size)
        max_cy = math.floor((origin[1] + range_m) / cell_size)
        cells = self._cells
        found: List["Phy"] = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                bucket = cells.get((cx, cy))
                if bucket is not None:
                    found.extend(bucket)
        found.sort(key=_registration_index)
        return found

    def cell_for(self, position: tuple) -> Cell:
        """The cell coordinate containing ``position``."""
        cell_size = self.cell_size_m
        return (math.floor(position[0] / cell_size),
                math.floor(position[1] / cell_size))

    @property
    def cell_count(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)


_registration_index = attrgetter("channel_index")
