"""Round-trip-time estimation and retransmission timeout calculation.

Standard RFC 6298 smoothing: ``SRTT``/``RTTVAR`` with Karn's algorithm applied
by the caller (retransmitted segments are never timed).  The minimum RTO is
kept at 200 ms, appropriate for the multi-hop sub-megabit links in the
paper's experiments where RTTs sit in the tens-to-hundreds of milliseconds.
"""

from __future__ import annotations

#: RTO before the first RTT sample (seconds).
INITIAL_RTO = 1.0
#: Floor and ceiling of the RTO, backoff included (seconds).
MIN_RTO = 0.2
MAX_RTO = 60.0
#: RFC 6298's SRTT gain, RTTVAR gain and RTTVAR multiplier.
ALPHA = 1.0 / 8.0
BETA = 1.0 / 4.0
K = 4.0


class RttEstimator:
    """SRTT/RTTVAR smoothing and RTO computation."""

    def __init__(self) -> None:
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self._rto: float = INITIAL_RTO
        self.samples: int = 0
        self._backoff_multiplier: float = 1.0

    @property
    def rto(self) -> float:
        """Current retransmission timeout (seconds), including any backoff."""
        return min(MAX_RTO, max(MIN_RTO, self._rto) * self._backoff_multiplier)

    def on_measurement(self, rtt_sample: float) -> None:
        """Fold a fresh RTT sample (from a never-retransmitted segment) into the estimate."""
        if rtt_sample < 0:
            return
        if self.samples == 0:
            self.srtt = rtt_sample
            self.rttvar = rtt_sample / 2.0
        else:
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - rtt_sample)
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt_sample
        self.samples += 1
        self._rto = self.srtt + K * self.rttvar
        self._backoff_multiplier = 1.0

    def on_timeout(self) -> None:
        """Exponential RTO backoff after a retransmission timeout."""
        self._backoff_multiplier = min(self._backoff_multiplier * 2.0,
                                       MAX_RTO / max(MIN_RTO, self._rto))

    def reset_backoff(self) -> None:
        """Clear the timeout backoff (called when new data is acknowledged)."""
        self._backoff_multiplier = 1.0
