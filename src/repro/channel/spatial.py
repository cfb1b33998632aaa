"""Uniform-grid spatial index over the registered PHYs of a channel.

:meth:`~repro.channel.medium.WirelessChannel.broadcast` historically budgeted
every registered PHY for every frame — O(N) per send, which caps scenarios at
tens of nodes.  :class:`UniformGridIndex` buckets PHYs into square cells of a
configurable size and answers *"who could possibly hear a frame sent from
here?"* by enumerating only the cells that intersect the channel's reach,
the conservative max-range disc of
:meth:`~repro.channel.propagation.IndoorPropagation.max_range_m`, so
building a delivery plan costs O(neighbours).

The index is deliberately *not* trusted with physics: it returns a candidate
**superset** — every registered PHY whose exact position lies within the
queried range is guaranteed to be a candidate (plus possibly a few just
outside it, from partially covered cells).  The channel still evaluates the
exact link budget for every candidate and culls receivers below the detect
floor, so grid-indexed and full-scan runs produce byte-identical outcomes;
``tests/integration/test_spatial_determinism.py`` pins that contract.

Determinism rules baked in:

* **Candidate order is registration order.**  Entries are keyed by the
  channel's registration index (``phy.channel_index``) and the final
  candidate list is sorted by it — never by cell hash or set iteration — so
  deliveries are scheduled in exactly the order the full scan would use.
* **Lazy revalidation against exact positions.**  A PHY built with a
  mobility model is mobile for as long as it is registered, and its entry
  is revalidated on every query against ``position_at(now)``: the cached
  cell may only be used when recomputing it would give the same answer.  A
  PHY built without one only moves when its position is assigned, which
  fires :meth:`~repro.channel.medium.WirelessChannel.phy_position_changed`,
  so its entry moves immediately.
* **Purge on unregister.**  Unregistering removes the entry from its cell,
  the mobile list and the entry table, and drops emptied cells, so a
  departed PHY is never a candidate.  The channel never reuses an index: a
  PHY that registers again gets a new entry, last in candidate order.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phy.device import Phy

Cell = Tuple[int, int]


class _GridEntry:
    """One registered PHY: its cached position and cell."""

    __slots__ = ("phy", "position", "cell")

    def __init__(self, phy: "Phy", position: tuple, cell: Cell) -> None:
        self.phy = phy
        self.position = position
        self.cell = cell


class UniformGridIndex:
    """Square-cell spatial hash with registration-ordered candidate queries."""

    __slots__ = ("cell_size_m", "_entries", "_cells", "_mobile")

    def __init__(self, cell_size_m: float) -> None:
        if not (cell_size_m > 0.0) or math.isinf(cell_size_m):
            raise ConfigurationError(
                f"cell size must be positive and finite, got {cell_size_m}")
        self.cell_size_m = cell_size_m
        # phy.channel_index -> entry.
        self._entries: Dict[int, _GridEntry] = {}
        # cell -> entries.
        self._cells: Dict[Cell, List[_GridEntry]] = {}
        # Entries carrying a mobility model, revalidated on every query.
        self._mobile: List[_GridEntry] = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, phy: "Phy", now: float) -> None:
        """Add ``phy`` at its exact position at ``now`` (idempotent)."""
        if phy.channel_index in self._entries:
            return
        position = phy.position_at(now)
        cell = self.cell_for(position)
        entry = _GridEntry(phy, position, cell)
        self._entries[phy.channel_index] = entry
        self._cells.setdefault(cell, []).append(entry)
        if phy.mobility is not None:
            self._mobile.append(entry)

    def unregister(self, phy: "Phy") -> None:
        """Remove ``phy`` and purge its cell entry (idempotent)."""
        entry = self._entries.pop(phy.channel_index, None)
        if entry is None:
            return
        self._drop_from_cell(entry)
        if phy.mobility is not None:
            self._mobile.remove(entry)

    def position_changed(self, phy: "Phy") -> None:
        """Re-bucket static ``phy`` after its position was reassigned.

        Only static PHYs can be reassigned; mobile entries need no hook,
        since every query revalidates them against ``position_at(now)``.
        """
        entry = self._entries.get(phy.channel_index)
        if entry is None:
            return
        self._move(entry, phy.position)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(self, origin: tuple, range_m: float, now: float) -> List["Phy"]:
        """Registered PHYs whose exact position may lie within ``range_m``.

        Returns a superset of the in-range PHYs, in registration order.  The
        caller is expected to evaluate the exact link budget per candidate;
        the index only prunes PHYs that are provably out of reach.
        """
        for entry in self._mobile:
            position = entry.phy.position_at(now)
            if position != entry.position:
                self._move(entry, position)
        cell_size = self.cell_size_m
        min_cx = math.floor((origin[0] - range_m) / cell_size)
        max_cx = math.floor((origin[0] + range_m) / cell_size)
        min_cy = math.floor((origin[1] - range_m) / cell_size)
        max_cy = math.floor((origin[1] + range_m) / cell_size)
        cells = self._cells
        found: List[_GridEntry] = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                bucket = cells.get((cx, cy))
                if bucket is not None:
                    found.extend(bucket)
        found.sort(key=_registration_index)
        return [entry.phy for entry in found]

    def cell_for(self, position: tuple) -> Cell:
        """The cell coordinate containing ``position``."""
        cell_size = self.cell_size_m
        return (math.floor(position[0] / cell_size),
                math.floor(position[1] / cell_size))

    # ------------------------------------------------------------------
    # Introspection (tests and metrics)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, phy: "Phy") -> bool:
        return phy.channel_index in self._entries

    @property
    def cell_count(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    @property
    def mobile_count(self) -> int:
        """Number of entries revalidated per query."""
        return len(self._mobile)

    def stored_cell_of(self, phy: "Phy") -> Optional[Cell]:
        """The cell the index currently files ``phy`` under (None if absent)."""
        entry = self._entries.get(phy.channel_index)
        return entry.cell if entry is not None else None

    def audit(self) -> None:
        """Assert internal consistency (test helper, not a hot path)."""
        cell_entries = [entry for bucket in self._cells.values() for entry in bucket]
        assert len(cell_entries) == len(self._entries), "entry/cell count mismatch"
        for entry in self._entries.values():
            assert entry in self._cells.get(entry.cell, ()), "entry missing from its cell"
        assert not any(len(bucket) == 0 for bucket in self._cells.values()), (
            "empty cell bucket retained")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _move(self, entry: _GridEntry, position: tuple) -> None:
        entry.position = position
        cell = self.cell_for(position)
        if cell == entry.cell:
            return
        self._drop_from_cell(entry)
        entry.cell = cell
        self._cells.setdefault(cell, []).append(entry)

    def _drop_from_cell(self, entry: _GridEntry) -> None:
        bucket = self._cells[entry.cell]
        bucket.remove(entry)
        if not bucket:
            del self._cells[entry.cell]


_registration_index = attrgetter("phy.channel_index")
