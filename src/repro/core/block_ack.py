"""Block acknowledgement extension.

Section 7 of the paper lists a block-ACK scheme (as in 802.11n) as future
work: instead of discarding the whole unicast portion when a single subframe
CRC fails, the receiver reports exactly which subframes arrived and the
sender retransmits only the missing ones.  This module provides the
scoreboard/bitmap bookkeeping; :class:`repro.mac.dcf.AggregatingMac` uses it
when ``MacConfig.use_block_ack`` is enabled, and an ablation benchmark
compares it against the paper's all-or-nothing baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac.addresses import MacAddress
    from repro.mac.frames import MacSubframe


@dataclass
class BlockAck:
    """A block acknowledgement: which subframe sequence numbers were received."""

    dst: "MacAddress"
    received_sequences: frozenset

    @property
    def size_bytes(self) -> int:
        """Size on air, :data:`repro.mac.frames.BLOCK_ACK_FRAME_BYTES`."""
        # Imported on use: importing repro.mac loads the MAC, which imports
        # this module.
        from repro.mac.frames import BLOCK_ACK_FRAME_BYTES
        return BLOCK_ACK_FRAME_BYTES

    @classmethod
    def for_outcome(cls, dst: "MacAddress", passed: Iterable[int]) -> "BlockAck":
        """Build a block ACK acknowledging the sequences in ``passed``."""
        return cls(dst=dst, received_sequences=frozenset(passed))

    def acknowledges(self, sequence: int) -> bool:
        """True when ``sequence`` was received correctly."""
        return sequence in self.received_sequences


@dataclass
class BlockAckScoreboard:
    """Sender-side record of which subframes of the last aggregate were ACKed."""

    outstanding: Dict[int, "MacSubframe"] = field(default_factory=dict)

    def register(self, subframes: Sequence["MacSubframe"]) -> None:
        """Record the unicast subframes of the aggregate just transmitted."""
        self.outstanding = {sf.sequence: sf for sf in subframes}

    def apply(self, block_ack: BlockAck) -> List["MacSubframe"]:
        """Apply a received block ACK; returns the subframes still unacknowledged."""
        missing = [sf for seq, sf in self.outstanding.items()
                   if not block_ack.acknowledges(seq)]
        self.outstanding = {sf.sequence: sf for sf in missing}
        return missing

    def fail_all(self) -> List["MacSubframe"]:
        """No block ACK arrived at all: every outstanding subframe needs retransmission."""
        return list(self.outstanding.values())

    @property
    def empty(self) -> bool:
        """True when nothing is awaiting acknowledgement."""
        return not self.outstanding
