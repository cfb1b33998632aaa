"""NewReno congestion control.

The paper's testbed runs the stock Linux TCP stack; what its experiments rely
on is ordinary loss-based congestion control with cumulative ACKs — the
window grows until the multi-hop path's queues fill, which is precisely what
creates the aggregation opportunities measured in Section 6.  This module
implements the window arithmetic of RFC 5681/6582 (slow start, congestion
avoidance, fast retransmit/recovery with NewReno partial-ACK handling); the
sender drives it through explicit notifications.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Congestion window at connection start, in segments.
INITIAL_WINDOW_SEGMENTS = 2
#: Slow-start threshold at connection start (bytes): high enough that only
#: a loss ends slow start.
INITIAL_SSTHRESH = 1 << 20


@dataclass
class NewRenoCongestionControl:
    """Congestion window state for one TCP sender."""

    mss: int

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ConfigurationError("mss must be positive")
        self.cwnd: int = INITIAL_WINDOW_SEGMENTS * self.mss
        self.ssthresh: int = INITIAL_SSTHRESH
        self.in_fast_recovery: bool = False
        #: Bytes acknowledged so far during congestion avoidance (for the
        #: cwnd += MSS*MSS/cwnd approximation done in whole-byte arithmetic).
        self._ca_acked: int = 0
        # counters for tests / reports
        self.fast_recoveries: int = 0
        self.timeouts: int = 0

    # ------------------------------------------------------------------
    # Window state queries
    # ------------------------------------------------------------------
    @property
    def in_slow_start(self) -> bool:
        """True while cwnd is below ssthresh (and not in fast recovery)."""
        return not self.in_fast_recovery and self.cwnd < self.ssthresh

    def window(self, receiver_window: int) -> int:
        """Usable send window in bytes."""
        return min(self.cwnd, receiver_window)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_new_ack(self, newly_acked: int) -> None:
        """A cumulative ACK advanced ``snd_una`` by ``newly_acked`` bytes."""
        if newly_acked <= 0:
            return
        if self.in_slow_start:
            self.cwnd += min(newly_acked, self.mss)
        else:
            self._ca_acked += newly_acked
            if self._ca_acked >= self.cwnd:
                self._ca_acked -= self.cwnd
                self.cwnd += self.mss

    def on_enter_fast_recovery(self, flight_size: int) -> None:
        """Third duplicate ACK: halve the window and inflate by three segments."""
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.in_fast_recovery = True
        self.fast_recoveries += 1

    def on_dup_ack_in_recovery(self) -> None:
        """Each additional duplicate ACK inflates the window by one segment."""
        if self.in_fast_recovery:
            self.cwnd += self.mss

    def on_partial_ack(self, newly_acked: int) -> None:
        """NewReno partial ACK: deflate by the amount acknowledged, plus one MSS."""
        if not self.in_fast_recovery:
            return
        self.cwnd = max(self.ssthresh, self.cwnd - newly_acked + self.mss)

    def on_exit_fast_recovery(self) -> None:
        """Full ACK of the recovery point: deflate the window to ssthresh."""
        if self.in_fast_recovery:
            self.cwnd = self.ssthresh
            self.in_fast_recovery = False
            self._ca_acked = 0

    def on_timeout(self, flight_size: int) -> None:
        """Retransmission timeout: collapse to one segment."""
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_fast_recovery = False
        self._ca_acked = 0
        self.timeouts += 1
