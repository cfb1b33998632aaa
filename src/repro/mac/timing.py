"""MAC timing constants.

The Hydra MAC is the 802.11 DCF; its interframe spaces and slot time are much
larger than commodity 802.11 silicon because the whole MAC/PHY pipeline runs
in software on a general-purpose host behind a USB radio.  The constants
below are calibrated so that the fixed per-exchange overhead of the *no
aggregation* configuration lands in the 2.4–2.7 ms range, which reproduces
the time-overhead column of Table 4 in the paper (22.4 % at 0.65 Mbps rising
to ~52 % at 2.6 Mbps for ~765 B average frames).
"""

from __future__ import annotations

from repro.units import microseconds

#: Backoff slot duration (seconds).
SLOT_TIME = microseconds(60.0)
#: Short interframe space (seconds).
SIFS = microseconds(60.0)
#: DCF interframe space: SIFS + 2 slots.
DIFS = SIFS + 2.0 * SLOT_TIME
#: Contention window bounds (slots): reset to ``CW_MIN`` on success, doubled
#: up to ``CW_MAX`` on failure.
CW_MIN = 16
CW_MAX = 1024
#: Retry limit for the unicast portion of a frame (RTS failures and missing
#: ACKs both count against it).
RETRY_LIMIT = 7
#: Extra guard time added to control-response timeouts.
TIMEOUT_GUARD = microseconds(30.0)
