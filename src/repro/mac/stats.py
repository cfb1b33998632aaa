"""Per-MAC statistics.

These counters feed the paper's detailed analysis (Tables 3–8): number of
data transmissions, average aggregated frame size, size overhead (MAC + PHY
header bytes relative to total bytes) and time overhead (header, control
frame, backoff and interframe-space airtime relative to total busy time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.frame import PhyFrame
from repro.phy.rates import PhyRate
from repro.phy.timing import PREAMBLE_DURATION

#: IP protocol tags of routing control-plane traffic (HELLO beacons, DSDV
#: updates and AODV RREQ/RREP/RERR messages).  Matched by string so this
#: module needs no import of the network layer; keep in sync with
#: :mod:`repro.net.discovery` / :mod:`repro.net.dynamic_routing` /
#: :mod:`repro.net.on_demand`.
ROUTING_CONTROL_PROTOCOLS = frozenset({"hello", "dsdv", "aodv"})


@dataclass(slots=True)
class MacStatistics:
    """Counters and accumulators maintained by one MAC instance."""

    name: str = "mac"

    # Transmission counts
    data_transmissions: int = 0
    broadcast_only_transmissions: int = 0
    rts_sent: int = 0
    cts_sent: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    retransmissions: int = 0
    unicast_drops: int = 0
    queue_drops: int = 0

    # Subframe counts
    unicast_subframes_sent: int = 0
    broadcast_subframes_sent: int = 0
    classified_ack_subframes_sent: int = 0
    subframes_delivered_up: int = 0
    overheard_dropped: int = 0
    duplicates_filtered: int = 0

    # Byte accounting (transmit side)
    payload_bytes_sent: int = 0
    mac_overhead_bytes_sent: int = 0
    phy_header_bytes_equivalent: float = 0.0

    # Routing control-plane accounting (HELLO + DSDV subframes this MAC
    # transmitted).  Counted so goodput numbers stay honest: the bytes also
    # appear in ``payload_bytes_sent``, these counters break out how much of
    # that "payload" was control-plane overhead.
    routing_subframes_sent: int = 0
    routing_bytes_sent: int = 0
    routing_airtime: float = 0.0

    # Airtime accounting (transmit side, exchanges this MAC initiated)
    payload_airtime: float = 0.0
    header_airtime: float = 0.0
    control_airtime: float = 0.0
    ifs_airtime: float = 0.0
    contention_airtime: float = 0.0

    # Running totals over DATA frames (MAC payload bytes, subframes); the
    # frame count is ``data_transmissions``.
    data_frame_bytes: int = 0
    data_frame_subframes: int = 0

    # ------------------------------------------------------------------
    # Recording helpers
    # ------------------------------------------------------------------
    def record_data_frame(self, frame: PhyFrame) -> None:
        """Account for a DATA frame this MAC just transmitted."""
        self.data_transmissions += 1
        if frame.is_broadcast_only:
            self.broadcast_only_transmissions += 1
        self.data_frame_bytes += frame.total_bytes
        self.data_frame_subframes += frame.subframe_count

        broadcast_rate = frame.broadcast_rate or frame.unicast_rate
        for subframe in frame.broadcast_subframes:
            self.broadcast_subframes_sent += 1
            if not subframe.dst.is_broadcast:
                self.classified_ack_subframes_sent += 1
            self._account_subframe(subframe, broadcast_rate)
        for subframe in frame.unicast_subframes:
            self.unicast_subframes_sent += 1
            self._account_subframe(subframe, frame.unicast_rate)

        # The PHY preamble/header is pure overhead; express it both in time and
        # in "equivalent bytes" at the unicast rate for the size-overhead metric.
        self.header_airtime += PREAMBLE_DURATION
        self.phy_header_bytes_equivalent += (
            PREAMBLE_DURATION * frame.unicast_rate.data_rate_bps / 8.0
        )

    def _account_subframe(self, subframe, rate: PhyRate) -> None:
        payload = subframe.packet.size_bytes
        overhead = subframe.overhead_bytes
        self.payload_bytes_sent += payload
        self.mac_overhead_bytes_sent += overhead
        self.payload_airtime += rate.transmission_time(payload)
        self.header_airtime += rate.transmission_time(overhead)
        if subframe.packet.ip.protocol in ROUTING_CONTROL_PROTOCOLS:
            self.routing_subframes_sent += 1
            self.routing_bytes_sent += payload
            self.routing_airtime += rate.transmission_time(payload + overhead)

    def record_control_frame(self, kind: str, airtime: float) -> None:
        """Account for a control frame (sent or received as part of our exchange)."""
        self.control_airtime += airtime
        if kind == "rts":
            self.rts_sent += 1
        elif kind == "cts":
            self.cts_sent += 1
        elif kind == "ack":
            self.acks_sent += 1

    def record_ifs(self, duration: float) -> None:
        """Account for DIFS/SIFS idle time that is part of our exchange."""
        self.ifs_airtime += duration

    def record_contention(self, duration: float) -> None:
        """Account for backoff time spent before winning the floor."""
        self.contention_airtime += duration

    # ------------------------------------------------------------------
    # Derived metrics (the paper's Tables 3-8)
    # ------------------------------------------------------------------
    @property
    def average_frame_size(self) -> float:
        """Average MAC bytes per DATA transmission (Table 3 / 5 / 8)."""
        if not self.data_transmissions:
            return 0.0
        return self.data_frame_bytes / self.data_transmissions

    @property
    def average_subframes_per_frame(self) -> float:
        """Average aggregation ratio (subframes per DATA transmission)."""
        if not self.data_transmissions:
            return 0.0
        return self.data_frame_subframes / self.data_transmissions

    @property
    def size_overhead_fraction(self) -> float:
        """MAC + PHY header bytes as a fraction of total transmitted bytes (Table 3 / 6)."""
        overhead = self.mac_overhead_bytes_sent + self.phy_header_bytes_equivalent
        total = self.payload_bytes_sent + overhead
        if total <= 0:
            return 0.0
        return overhead / total

    @property
    def time_overhead_fraction(self) -> float:
        """Non-payload airtime as a fraction of total exchange time (Table 4)."""
        overhead = (self.header_airtime + self.control_airtime
                    + self.ifs_airtime + self.contention_airtime)
        total = overhead + self.payload_airtime
        if total <= 0:
            return 0.0
        return overhead / total

    @property
    def routing_overhead_fraction(self) -> float:
        """Routing control-plane bytes as a fraction of all payload bytes sent.

        Zero for scenarios without a dynamic control plane, so the paper's
        static experiments report exactly what they always did.
        """
        if self.payload_bytes_sent <= 0:
            return 0.0
        return self.routing_bytes_sent / self.payload_bytes_sent

    def summary(self) -> dict:
        """Flat dictionary of the headline statistics (for reports/tests)."""
        return {
            "data_transmissions": self.data_transmissions,
            "average_frame_size": round(self.average_frame_size, 1),
            "average_subframes_per_frame": round(self.average_subframes_per_frame, 2),
            "size_overhead": round(self.size_overhead_fraction, 4),
            "time_overhead": round(self.time_overhead_fraction, 4),
            "retransmissions": self.retransmissions,
            "unicast_drops": self.unicast_drops,
            "queue_drops": self.queue_drops,
            "routing_subframes_sent": self.routing_subframes_sent,
            "routing_overhead": round(self.routing_overhead_fraction, 4),
        }
