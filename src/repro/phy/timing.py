"""PHY airtime and sample accounting.

Two quantities drive every experiment in the paper:

* the **airtime** of a physical frame — preamble plus the broadcast portion at
  the broadcast rate plus the unicast portion at the unicast rate — which
  determines throughput; and
* the **sample offset** at which each subframe ends — Hydra's channel
  estimate, taken from the preamble, goes stale after roughly 120 Ksamples, so
  subframes ending beyond that offset fail (Section 6.1 / Figure 7).

The Hydra PHY streams complex baseband samples over USB at an effective rate
of about 1.9 Msample/s in this model; that constant is calibrated so that the
paper's byte thresholds (5 KB at 0.65 Mbps, ~11 KB at 1.3 Mbps, ~15 KB at
1.95 Mbps) all map to the same ~120 Ksample ceiling, exactly as the authors
observe.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.phy.rates import PhyRate
from repro.units import microseconds

#: Duration of the PHY training sequences plus rate/length header (seconds).
#: Hydra's software PHY preamble is long compared to commodity 802.11 hardware.
PREAMBLE_DURATION = microseconds(240.0)
#: Effective complex-baseband sample rate (samples per second) used to
#: convert airtime into PHY samples for the aging model.
SAMPLE_RATE = 1.9e6


# ----------------------------------------------------------------------
# Airtime
# ----------------------------------------------------------------------
def payload_airtime(size_bytes: int, rate: PhyRate) -> float:
    """Airtime of ``size_bytes`` of MAC payload at ``rate`` (no preamble)."""
    if size_bytes < 0:
        raise ConfigurationError("size_bytes must be non-negative")
    return rate.transmission_time(size_bytes)


def frame_airtime(broadcast_bytes: int, broadcast_rate: PhyRate,
                  unicast_bytes: int, unicast_rate: PhyRate) -> float:
    """Total airtime of an aggregated physical frame.

    The broadcast portion is serialised first at ``broadcast_rate``, then
    the unicast portion at ``unicast_rate`` (Figure 2 of the paper), after
    a single preamble.
    """
    duration = PREAMBLE_DURATION
    if broadcast_bytes:
        duration += payload_airtime(broadcast_bytes, broadcast_rate)
    if unicast_bytes:
        duration += payload_airtime(unicast_bytes, unicast_rate)
    return duration


def control_airtime(size_bytes: int, rate: PhyRate) -> float:
    """Airtime of a control frame (RTS/CTS/ACK): preamble + body."""
    return PREAMBLE_DURATION + payload_airtime(size_bytes, rate)


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------
def samples_for_bytes(size_bytes: int, rate: PhyRate) -> float:
    """Number of PHY samples needed to carry ``size_bytes`` at ``rate``."""
    return payload_airtime(size_bytes, rate) * SAMPLE_RATE


def bytes_for_samples(samples: float, rate: PhyRate) -> float:
    """Inverse of :func:`samples_for_bytes` (may be fractional)."""
    airtime = samples / SAMPLE_RATE
    return rate.bits_in_time(airtime) / 8.0


def subframe_sample_offsets(sizes_bytes: Sequence[int], rate: PhyRate,
                            start_offset_samples: float = 0.0) -> List[float]:
    """Sample offset (from the end of the preamble) at which each subframe ends.

    ``start_offset_samples`` accounts for an earlier portion of the frame
    transmitted at a different rate (e.g. the broadcast portion preceding
    the unicast portion).
    """
    offsets: List[float] = []
    cumulative = start_offset_samples
    for size in sizes_bytes:
        cumulative += samples_for_bytes(size, rate)
        offsets.append(cumulative)
    return offsets
