"""Aggregation policies.

An :class:`AggregationPolicy` bundles every knob the paper's evaluation
turns:

* **NA** (no aggregation) — one subframe per transmission, TCP ACKs treated
  like any other unicast packet;
* **UA** (unicast aggregation, Section 3.1) — several unicast subframes for
  the same destination share one transmission and one link-level ACK;
* **BA** (broadcast aggregation + TCP ACK classification, Sections 3.2/3.3) —
  broadcast subframes (including classified pure TCP ACKs) are prepended to
  the unicast portion and are not acknowledged;
* **DBA** (delayed BA, Section 6.4.3) — relay nodes additionally wait until a
  minimum number of frames is queued before contending for the floor.

The remaining fields cover the experiment-specific variations: the maximum
aggregation size swept in Figure 7 and the forward-aggregation switch of
Figure 14.  Rates are not part of a policy: Figure 10's pinned broadcast rate
is the topology builders' ``broadcast_rate_mbps``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.units import kilobytes, milliseconds

#: The maximum aggregation size the paper selects after the Figure 7 sweep.
DEFAULT_MAX_AGGREGATE_BYTES = kilobytes(5)


@dataclass(frozen=True)
class AggregationPolicy:
    """Complete aggregation configuration for one MAC."""

    name: str
    #: Allow multiple unicast subframes (same destination) per transmission.
    aggregate_unicast: bool = True
    #: Allow broadcast subframes to be aggregated with each other and
    #: prepended to the unicast portion of a frame.
    aggregate_broadcast: bool = True
    #: Divert pure TCP ACKs into the broadcast queue (Section 3.3).
    classify_tcp_acks_as_broadcast: bool = True
    #: Allow aggregation of packets flowing in the same direction
    #: (Section 6.4.4); when False at most one unicast and one broadcast
    #: subframe ride in each frame, so any benefit comes purely from
    #: combining TCP data with reverse-direction ACKs.
    forward_aggregation: bool = True
    #: Maximum total size of an aggregated frame (broadcast + unicast bytes).
    max_aggregate_bytes: int = DEFAULT_MAX_AGGREGATE_BYTES
    #: Minimum number of queued subframes before the MAC contends for the
    #: floor (1 = transmit as soon as anything is queued; 3 = the paper's DBA).
    min_frames_before_transmit: int = 1
    #: Safety valve for the delayed policy: transmit whatever is queued after
    #: this long even if the minimum frame count was not reached.
    delayed_flush_timeout: float = milliseconds(30.0)

    def __post_init__(self) -> None:
        if self.max_aggregate_bytes < MIN_REASONABLE_AGGREGATE_BYTES:
            raise ConfigurationError(
                f"max_aggregate_bytes={self.max_aggregate_bytes} cannot hold a full-size subframe"
            )
        if self.min_frames_before_transmit < 1:
            raise ConfigurationError("min_frames_before_transmit must be >= 1")
        if self.delayed_flush_timeout <= 0:
            raise ConfigurationError("delayed_flush_timeout must be positive")

    # ------------------------------------------------------------------
    # Derived limits used by the aggregator
    # ------------------------------------------------------------------
    @property
    def max_unicast_subframes(self) -> int:
        """Cap on unicast subframes per aggregate implied by the policy flags."""
        if not self.aggregate_unicast or not self.forward_aggregation:
            return 1
        return 10_000

    @property
    def max_broadcast_subframes(self) -> int:
        """Cap on broadcast subframes per aggregate implied by the policy flags."""
        if not self.aggregate_broadcast:
            return 1
        if not self.forward_aggregation:
            return 1
        return 10_000

    @property
    def mixes_broadcast_and_unicast(self) -> bool:
        """True when broadcast subframes may share a frame with unicast subframes."""
        return self.aggregate_broadcast

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def without_forward_aggregation(self) -> "AggregationPolicy":
        """Copy of the policy with forward aggregation disabled (Figure 14)."""
        return replace(self, name=f"{self.name}-noFwd", forward_aggregation=False)


#: A subframe can never be smaller than this, so a budget below it is a bug.
MIN_REASONABLE_AGGREGATE_BYTES = 200


def no_aggregation(max_aggregate_bytes: int = DEFAULT_MAX_AGGREGATE_BYTES) -> AggregationPolicy:
    """The paper's NA baseline: one subframe per transmission."""
    return AggregationPolicy(
        name="NA",
        aggregate_unicast=False,
        aggregate_broadcast=False,
        classify_tcp_acks_as_broadcast=False,
        max_aggregate_bytes=max_aggregate_bytes,
    )


def unicast_aggregation(max_aggregate_bytes: int = DEFAULT_MAX_AGGREGATE_BYTES) -> AggregationPolicy:
    """UA: aggregate unicast subframes only; TCP ACKs stay unicast."""
    return AggregationPolicy(
        name="UA",
        aggregate_unicast=True,
        aggregate_broadcast=False,
        classify_tcp_acks_as_broadcast=False,
        max_aggregate_bytes=max_aggregate_bytes,
    )


def broadcast_aggregation(max_aggregate_bytes: int = DEFAULT_MAX_AGGREGATE_BYTES) -> AggregationPolicy:
    """BA: unicast + broadcast aggregation with TCP ACKs classified as broadcasts."""
    return AggregationPolicy(
        name="BA",
        aggregate_unicast=True,
        aggregate_broadcast=True,
        classify_tcp_acks_as_broadcast=True,
        max_aggregate_bytes=max_aggregate_bytes,
    )


def delayed_broadcast_aggregation(min_frames: int = 3,
                                  max_aggregate_bytes: int = DEFAULT_MAX_AGGREGATE_BYTES,
                                  flush_timeout: float = milliseconds(30.0)) -> AggregationPolicy:
    """DBA: BA plus a minimum queue occupancy before contending for the floor."""
    return AggregationPolicy(
        name="DBA",
        aggregate_unicast=True,
        aggregate_broadcast=True,
        classify_tcp_acks_as_broadcast=True,
        max_aggregate_bytes=max_aggregate_bytes,
        min_frames_before_transmit=min_frames,
        delayed_flush_timeout=flush_timeout,
    )
