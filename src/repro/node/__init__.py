"""Node assembly: the full Hydra protocol stack wired together."""

from repro.node.node import Node

__all__ = ["Node"]
