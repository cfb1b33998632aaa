"""Mobility models for tests.

``Fixed`` never moves, but a PHY built with it carries a model, so its
channel builds a fresh delivery plan for every broadcast: tests compare such
runs against the same run with cached plans.
"""

from __future__ import annotations

from repro.mobility.models import MobilityModel


class Fixed(MobilityModel):
    """A model that stays at the position it was bound to."""

    def position_at(self, time):
        return self._origin
