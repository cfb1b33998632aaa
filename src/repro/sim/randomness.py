"""Reproducible random-number streams.

Each component (every node's MAC backoff, every PHY error draw, every traffic
source) gets its *own* ``random.Random`` stream derived deterministically from
the simulator's root seed and a stable string label.  This makes runs
reproducible and — more importantly for experiments — makes a change in one
component's random consumption not perturb every other component.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory of named, deterministic ``random.Random`` streams."""

    __slots__ = ("root_seed", "_streams")

    def __init__(self, root_seed: int = 1) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, label: str) -> random.Random:
        """Return the stream for ``label``, creating it on first use.

        The same ``(root_seed, label)`` pair always yields the same sequence.
        """
        if label not in self._streams:
            self._streams[label] = random.Random(self._derive_seed(label))
        return self._streams[label]

    def fresh_stream(self, label: str) -> random.Random:
        """A new generator seeded as :meth:`stream` seeds ``label``'s, not kept.

        For a label drawn from once: :meth:`stream` would hold its generator
        for the factory's lifetime.
        """
        return random.Random(self._derive_seed(label))

    def fork(self, label: str) -> "RandomStreams":
        """Return a new :class:`RandomStreams` whose root is derived from ``label``."""
        return RandomStreams(self._derive_seed(label))

    def _derive_seed(self, label: str) -> int:
        digest = hashlib.sha256(f"{self.root_seed}:{label}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def __contains__(self, label: str) -> bool:
        return label in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams root={self.root_seed} streams={len(self._streams)}>"
