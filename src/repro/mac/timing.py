"""MAC timing parameters.

The Hydra MAC is the 802.11 DCF; its interframe spaces and slot time are much
larger than commodity 802.11 silicon because the whole MAC/PHY pipeline runs
in software on a general-purpose host behind a USB radio.  The defaults in
:data:`HYDRA_MAC_TIMING` are calibrated so that the fixed per-exchange
overhead of the *no aggregation* configuration lands in the 2.4–2.7 ms range,
which reproduces the time-overhead column of Table 4 in the paper (22.4 % at
0.65 Mbps rising to ~52 % at 2.6 Mbps for ~765 B average frames).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import microseconds


@dataclass(slots=True)
class MacTimingProfile:
    """Interframe spaces, slot time and contention-window parameters."""

    slot_time: float = microseconds(60.0)
    sifs: float = microseconds(60.0)
    cw_min: int = 16
    cw_max: int = 1024
    #: Retry limit for the unicast portion of a frame (RTS failures and
    #: missing ACKs both count against it).
    retry_limit: int = 7
    #: Extra guard time added to control-response timeouts.
    timeout_guard: float = microseconds(30.0)

    def __post_init__(self) -> None:
        if self.slot_time <= 0 or self.sifs <= 0:
            raise ConfigurationError("slot_time and sifs must be positive")
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ConfigurationError("contention window bounds are inconsistent")
        if self.retry_limit < 0:
            raise ConfigurationError("retry_limit must be non-negative")

    @property
    def difs(self) -> float:
        """DCF interframe space: SIFS + 2 slots."""
        return self.sifs + 2.0 * self.slot_time

    @property
    def eifs(self) -> float:
        """Extended interframe space used after a reception error (simplified)."""
        return self.difs + self.sifs

    def response_timeout(self, response_airtime: float) -> float:
        """Timeout for an expected SIFS-separated response (CTS or ACK)."""
        return self.sifs + response_airtime + self.timeout_guard


#: Timing profile of the Hydra prototype MAC.
HYDRA_MAC_TIMING = MacTimingProfile()
