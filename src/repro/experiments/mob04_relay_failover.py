"""Relay failover: DSDV reconvergence onto a backup path vs static outage.

``mob02`` showed what happens when the only relay of a 2-hop path orbits out
of range under the paper's static-routing assumption: the transfer stalls for
the whole outage (and TCP's backed-off RTO can phase-lock with the orbit).
This experiment replaces that permanent outage with *measured reconvergence*:
the topology offers a **backup relay** on a detour, and the DSDV control
plane (:mod:`repro.net.dynamic_routing`) re-routes onto it when HELLO expiry
declares the orbiting primary relay gone.

Topology (endpoints out of mutual range, gap beyond the ~12.5 m decodability
limit)::

            orbit (radius r, period P)
              .--O--.
             /       \\          primary relay: starts at the midpoint,
      A ----+----R----+---- B    orbits out of range once per period
             \\       /
              `--S--'            backup relay: pinned below the axis,
                                 always in range of both endpoints

Reported per routing mode over the swept orbit period, for a UDP CBR flow
A → B:

* ``dsdv delivery`` / ``static delivery`` — delivery ratio (received/sent);
  static routes pin the path through the primary relay, so its delivery
  collapses with the outage fraction while DSDV's stays near 1;
* ``dsdv reconvergence s`` — mean route-repair latency at the source (gap
  between "broken" and "restored" in the source router's route log), i.e.
  how long delivery was down before the backup path took over;
* ``dsdv outage s`` / ``static outage s`` — the longest gap between
  consecutive sink arrivals, the application's view of the same repair.
"""

from __future__ import annotations

import math
from statistics import mean
from typing import Sequence, Tuple

from repro.apps.cbr import CbrSource, UdpSink
from repro.core.policies import AggregationPolicy, broadcast_aggregation
from repro.errors import ExperimentError
from repro.mobility.models import CircularOrbit
from repro.net.dynamic_routing import DsdvConfig
from repro.sim.simulator import Simulator
from repro.stats.results import ExperimentResult, Series
from repro.topology.network import Network

DEFAULT_ORBIT_PERIODS_S = (20.0, 40.0)

#: Endpoint separation: beyond the ~12.5 m decodability limit of the default
#: indoor propagation model, so all traffic must cross one of the relays.
DEFAULT_ENDPOINT_GAP_M = 14.0


def _run_once(policy: AggregationPolicy, routing: str, orbit_period: float,
              orbit_radius_m: float, endpoint_gap_m: float,
              backup_offset_m: float, hello_interval: float,
              advertise_interval: float, cbr_interval: float,
              cbr_payload_bytes: int, warmup: float, duration: float,
              rate_mbps: float, seed: int) -> Tuple[float, float, float]:
    """One failover run; returns (delivery ratio, mean repair s, max arrival gap s)."""
    sim = Simulator(seed=seed)
    dsdv = DsdvConfig(hello_interval=hello_interval,
                      advertise_interval=advertise_interval)
    network = Network(sim, policy, unicast_rate_mbps=rate_mbps,
                      routing=dsdv if routing == "dsdv" else None)

    half = endpoint_gap_m / 2.0
    a = network.add_node((-half, 0.0))
    # Primary relay: starts at the midpoint; its orbit center sits radius
    # above, carrying it to 2x radius off-axis (out of range of both
    # endpoints) once per period.
    relay = network.add_node((0.0, 0.0),
                             CircularOrbit(radius=orbit_radius_m,
                                           period=orbit_period))
    backup = network.add_node((0.0, -backup_offset_m))
    b = network.add_node((half, 0.0))
    if routing == "static":
        # The paper's assumption: the path is pinned through the primary
        # relay, exactly like mob02 — outages last as long as the orbit
        # keeps the relay away.
        network.connect_chain(a.index, relay.index, b.index)

    sink = UdpSink(network.node(b.index))
    source = CbrSource(network.node(a.index), b.ip, interval=cbr_interval,
                       payload_bytes=cbr_payload_bytes)
    source.start(warmup)
    sim.run(until=duration)

    sent = source.packets_sent
    delivery = sink.packets_received / sent if sent else 0.0
    # The application's outage view: the largest inter-arrival gap, extended
    # by silence at either end of the run.
    largest_gap = sink.largest_arrival_gap
    if sink.first_arrival is None:
        largest_gap = duration - warmup
    else:
        largest_gap = max(largest_gap, sink.first_arrival - warmup,
                          duration - sink.last_arrival)
    repair = 0.0
    if routing == "dsdv":
        repairs = network.node(a.index).router.repair_latencies(b.ip)
        repair = mean(repairs) if repairs else 0.0
    return delivery, repair, largest_gap


def run(orbit_periods: Sequence[float] = DEFAULT_ORBIT_PERIODS_S,
        orbit_radius_m: float = 6.0, endpoint_gap_m: float = DEFAULT_ENDPOINT_GAP_M,
        backup_offset_m: float = 5.0, hello_interval: float = 0.5,
        advertise_interval: float = 1.5, cbr_interval: float = 0.05,
        cbr_payload_bytes: int = 500, warmup: float = 3.0,
        duration: float = 60.0, rate_mbps: float = 0.65,
        include_static_baseline: bool = True, seed: int = 1) -> ExperimentResult:
    """Sweep the orbit period; compare DSDV failover with the static baseline."""
    if any(period <= 0 for period in orbit_periods):
        raise ExperimentError("orbit periods must be positive")
    half = endpoint_gap_m / 2.0
    if math.hypot(half, backup_offset_m) >= 12.0:
        raise ExperimentError("backup relay would sit at the edge of decodability")
    result = ExperimentResult(
        experiment_id="mob04",
        description="relay failover: DSDV reconvergence vs static outage",
    )
    modes = [("dsdv", "dsdv")]
    if include_static_baseline:
        modes.append(("static", "static"))
    for label, routing in modes:
        delivery_series = result.add_series(Series(label=f"{label} delivery"))
        outage_series = result.add_series(Series(label=f"{label} outage s"))
        reconvergence_series = None
        if routing == "dsdv":
            reconvergence_series = result.add_series(
                Series(label="dsdv reconvergence s"))
        for period in orbit_periods:
            delivery, repair, largest_gap = _run_once(
                broadcast_aggregation(), routing=routing, orbit_period=period,
                orbit_radius_m=orbit_radius_m, endpoint_gap_m=endpoint_gap_m,
                backup_offset_m=backup_offset_m, hello_interval=hello_interval,
                advertise_interval=advertise_interval,
                cbr_interval=cbr_interval, cbr_payload_bytes=cbr_payload_bytes,
                warmup=warmup, duration=duration, rate_mbps=rate_mbps,
                seed=seed)
            delivery_series.add(period, delivery)
            outage_series.add(period, largest_gap)
            if reconvergence_series is not None:
                reconvergence_series.add(period, repair)

    dsdv_delivery = result.get_series("dsdv delivery")
    result.add_metric("dsdv_min_delivery", min(dsdv_delivery.y_values))
    if include_static_baseline:
        static_delivery = result.get_series("static delivery")
        result.add_metric("dsdv_minus_static_delivery",
                          min(dsdv_delivery.y_values) - min(static_delivery.y_values))
    result.add_metric("relay_peak_link_distance_m",
                      math.hypot(half, 2.0 * orbit_radius_m))
    result.add_metric("backup_link_distance_m", math.hypot(half, backup_offset_m))
    result.note("Replaces mob02's permanent outage with measured reconvergence: "
                "when HELLO expiry declares the orbiting relay gone, DSDV "
                "re-routes onto the backup relay and delivery resumes; the "
                "static baseline stays down until the orbit returns.")
    result.note("Reconvergence is bounded by the HELLO hold time plus the "
                "advertisement that re-propagates the destination's sequence "
                "number along the backup path.")
    return result


#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "mob04"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"orbit_periods": (15.0,), "duration": 18.0, "warmup": 2.0,
               "cbr_interval": 0.08, "include_static_baseline": False}
