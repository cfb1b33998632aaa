"""Routing control overhead vs HELLO/advertisement interval.

The dynamic control plane (:mod:`repro.net.discovery` +
:mod:`repro.net.dynamic_routing`) buys route repair with broadcast beacons
that contend for the same sub-megabit channel as the data they protect.
This experiment prices that trade on a static 4-node chain (8 m spacing, so
the ends are 3 hops apart and every HELLO/advertisement crosses a real
multi-hop mesh): sweep the HELLO interval — the advertisement interval
scales with it at a fixed ratio — and measure both sides of the bargain.

Reported per policy (NA / BA) over the swept HELLO interval:

* ``<policy> ctrl frac`` — control-plane share of all transmitted MAC
  payload bytes (``mac.stats.routing_bytes_sent`` over
  ``payload_bytes_sent`` summed across nodes);
* ``<policy> udp Mbps`` — goodput of an end-to-end UDP CBR flow under that
  beacon load;
* ``<policy> ctrl/s`` — absolute control-plane transmissions per second
  (HELLO + update subframes), the figure to check against the interval.

Broadcast aggregation makes the control plane nearly free at short
intervals: beacons ride inside data frames instead of paying their own
contention, which is precisely the Section 6.3 flooding argument replayed
with a real routing protocol.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.apps.cbr import CbrSource, UdpSink
from repro.core.policies import (
    AggregationPolicy,
    broadcast_aggregation,
    no_aggregation,
)
from repro.errors import ExperimentError
from repro.net.dynamic_routing import DsdvConfig
from repro.sim.simulator import Simulator
from repro.stats.results import ExperimentResult, Series
from repro.topology.network import Network

DEFAULT_HELLO_INTERVALS_S = (0.25, 0.5, 1.0, 2.0)

#: Chain spacing: inside the ~12.5 m decodability limit for adjacent nodes,
#: far outside it end to end.
CHAIN_SPACING_M = 8.0


def _run_once(policy: AggregationPolicy, hello_interval: float,
              advertise_ratio: float, node_count: int, cbr_interval: float,
              cbr_payload_bytes: int, warmup: float, duration: float,
              rate_mbps: float, seed: int) -> Tuple[float, float, float]:
    """One chain run; returns (ctrl fraction, UDP goodput Mbps, ctrl tx/s)."""
    sim = Simulator(seed=seed)
    routing = DsdvConfig(hello_interval=hello_interval,
                         advertise_interval=hello_interval * advertise_ratio)
    network = Network(sim, policy, unicast_rate_mbps=rate_mbps, routing=routing)
    for i in range(node_count):
        network.add_node((i * CHAIN_SPACING_M, 0.0))

    sink = UdpSink(network.node(node_count))
    sink.snapshot_at(warmup)
    source = CbrSource(network.node(1), network.node(node_count).ip,
                       interval=cbr_interval, payload_bytes=cbr_payload_bytes)
    source.start(warmup)
    sim.run(until=duration)

    payload = sum(node.mac_stats.payload_bytes_sent for node in network.nodes)
    control_bytes = sum(node.mac_stats.routing_bytes_sent for node in network.nodes)
    control_subframes = sum(node.mac_stats.routing_subframes_sent
                            for node in network.nodes)
    fraction = control_bytes / payload if payload else 0.0
    goodput = sink.throughput_mbps(measurement_start=warmup,
                                   measurement_end=duration)
    return fraction, goodput, control_subframes / duration


def run(hello_intervals_s: Sequence[float] = DEFAULT_HELLO_INTERVALS_S,
        advertise_ratio: float = 3.0, node_count: int = 4,
        cbr_interval: float = 0.05, cbr_payload_bytes: int = 500,
        warmup: float = 3.0, duration: float = 15.0, rate_mbps: float = 0.65,
        include_no_aggregation: bool = True, seed: int = 1) -> ExperimentResult:
    """Sweep the HELLO interval; report overhead and goodput per policy."""
    if any(interval <= 0 for interval in hello_intervals_s):
        raise ExperimentError("HELLO intervals must be positive")
    if advertise_ratio < 1:
        raise ExperimentError("advertisements cannot outpace HELLOs")
    if node_count < 2:
        raise ExperimentError("rt01 needs a multi-hop chain")
    if warmup >= duration:
        raise ExperimentError("warmup must end before the run does")
    result = ExperimentResult(
        experiment_id="rt01",
        description="DSDV control overhead vs HELLO/advertisement interval",
    )
    variants = [("BA", broadcast_aggregation)]
    if include_no_aggregation:
        variants.insert(0, ("NA", no_aggregation))
    for label, policy_factory in variants:
        fraction_series = result.add_series(Series(label=f"{label} ctrl frac"))
        goodput_series = result.add_series(Series(label=f"{label} udp Mbps"))
        rate_series = result.add_series(Series(label=f"{label} ctrl/s"))
        for interval in hello_intervals_s:
            fraction, goodput, per_second = _run_once(
                policy_factory(), hello_interval=interval,
                advertise_ratio=advertise_ratio, node_count=node_count,
                cbr_interval=cbr_interval, cbr_payload_bytes=cbr_payload_bytes,
                warmup=warmup, duration=duration, rate_mbps=rate_mbps,
                seed=seed)
            fraction_series.add(interval, fraction)
            goodput_series.add(interval, goodput)
            rate_series.add(interval, per_second)

    shortest = min(hello_intervals_s)
    longest = max(hello_intervals_s)
    ba = result.get_series("BA ctrl frac")
    result.add_metric("ba_ctrl_frac_range",
                      ba.value_at(shortest) - ba.value_at(longest))
    result.note("Beyond the paper: Section 6.3 floods dummy broadcast traffic; "
                "here the broadcasts are a live DSDV control plane whose "
                "interval sets both repair latency and overhead.")
    return result


#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "rt01"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"hello_intervals_s": (0.5, 1.5), "duration": 6.0, "warmup": 2.0,
               "include_no_aggregation": False}
