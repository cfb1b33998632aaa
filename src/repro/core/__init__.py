"""The paper's primary contribution: frame aggregation with broadcast TCP ACKs.

This package contains the pieces that Sections 3 and 4 of the paper add on
top of a stock 802.11 DCF MAC:

* :mod:`repro.core.policies` — the aggregation configurations evaluated in the
  paper (no aggregation, unicast aggregation, broadcast aggregation and
  delayed broadcast aggregation) plus the knobs the experiments sweep
  (maximum aggregation size, fixed broadcast rate, forward aggregation on/off);
* :mod:`repro.core.aggregator` — the transmit-side assembly of aggregated
  physical frames (broadcast portion first, then unicast subframes for one
  destination, within the size budget);
* :mod:`repro.core.deaggregation` — the receive-side rules (per-broadcast-
  subframe CRC and pass-up, all-or-nothing acceptance of the unicast portion
  under a single link-level ACK, address filtering of overheard TCP ACKs).

The cross-layer classification of pure TCP ACKs into the broadcast queue
(Section 4.2.4) is one test where the MAC queues a packet:
:meth:`repro.mac.dcf.AggregatingMac.enqueue`.
"""

from repro.core.policies import (
    AggregationPolicy,
    broadcast_aggregation,
    delayed_broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.core.aggregator import AggregateBuild, Aggregator
from repro.core.deaggregation import DeaggregationResult, process_received_aggregate

__all__ = [
    "AggregationPolicy",
    "no_aggregation",
    "unicast_aggregation",
    "broadcast_aggregation",
    "delayed_broadcast_aggregation",
    "Aggregator",
    "AggregateBuild",
    "process_received_aggregate",
    "DeaggregationResult",
]
