"""Binary-exponential backoff state.

The DCF state machine owns *when* slots are counted down (it must freeze the
counter while the medium is busy); this class owns the contention-window
arithmetic: drawing a uniform slot count, doubling on failure and resetting
on success.
"""

from __future__ import annotations

import random

from repro.mac.timing import CW_MAX, CW_MIN


class BackoffController:
    """Contention window and slot-count management for one MAC."""

    __slots__ = ("_rng", "_cw", "slots_remaining")

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._cw = CW_MIN
        self.slots_remaining = 0

    def draw(self) -> int:
        """Draw a fresh backoff count uniformly from ``[0, cw)``."""
        self.slots_remaining = self._rng.randrange(self._cw)
        return self.slots_remaining

    def consume(self, slots: int) -> None:
        """Record that ``slots`` backoff slots elapsed while the medium was idle."""
        self.slots_remaining = max(0, self.slots_remaining - slots)

    @property
    def expired(self) -> bool:
        """True once the backoff counter reaches zero."""
        return self.slots_remaining == 0

    def on_failure(self) -> None:
        """Double the contention window (bounded by ``CW_MAX``)."""
        self._cw = min(self._cw * 2, CW_MAX)

    def on_success(self) -> None:
        """Reset the contention window to ``CW_MIN``."""
        self._cw = CW_MIN
