"""Mobility models for tests.

``Fixed`` never moves, but a PHY built with it carries a model, so its
channel builds a fresh delivery plan for every broadcast: tests compare such
runs against the same run with cached plans.

``Jumps`` moves a PHY in steps at given times.  A model is the only way a
PHY moves, so a test that breaks a link mid-run (and heals it again) builds
the node with one: ``Jumps(((t_away, far), (t_back, home)))``.
"""

from __future__ import annotations

from repro.mobility.models import MobilityModel


class Fixed(MobilityModel):
    """A model that stays at the position it was bound to."""

    def position_at(self, time):
        return self._origin


class Jumps(MobilityModel):
    """Piecewise-constant motion: at its origin, then at each jump's position.

    ``jumps`` is a sequence of ``(time, position)`` pairs in time order; from
    each ``time`` on (inclusive) the PHY stands at that ``position``.
    """

    def __init__(self, jumps):
        super().__init__()
        self.jumps = tuple(jumps)

    def position_at(self, time):
        position = self._origin
        for at, where in self.jumps:
            if time < at:
                break
            position = where
        return position
