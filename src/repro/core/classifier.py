"""Cross-layer packet classification.

The Hydra implementation uses Click's packet classifiers to sort "pure" TCP
ACK segments out of the unicast traffic and place them in the broadcast queue
(Section 4.2.4).  A pure TCP ACK carries no payload and is not part of
connection set-up or tear-down; anything else (data segments, SYN/FIN/RST
segments, UDP, routing control traffic) keeps its normal queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.packet import Packet


@dataclass(slots=True)
class TcpAckClassifier:
    """Decides which transmit queue a packet belongs in.

    The classifier is deliberately stateless about flows — exactly like a
    Click classifier element it looks only at the headers of the packet in
    hand — but it keeps counters so experiments can report how much traffic
    was diverted.
    """

    #: Master switch; a disabled classifier sends everything down the
    #: normal unicast/broadcast split.
    enabled: bool = True
    counters: Dict[str, int] = field(default_factory=dict)

    def is_pure_tcp_ack(self, packet: "Packet") -> bool:
        """True when ``packet`` is a pure TCP ACK (no data, not SYN/FIN/RST)."""
        return packet.is_pure_tcp_ack

    def belongs_in_broadcast_queue(self, packet: "Packet", link_broadcast: bool) -> bool:
        """Queue decision for ``packet``.

        Parameters
        ----------
        packet:
            The network packet being enqueued.
        link_broadcast:
            True when the packet is addressed to the link-layer broadcast
            address (flooding/control traffic); such packets always use the
            broadcast queue regardless of classification.
        """
        if link_broadcast:
            self._count("link_broadcast")
            return True
        if self.enabled and self.is_pure_tcp_ack(packet):
            self._count("classified_tcp_ack")
            return True
        self._count("unicast")
        return False

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1
