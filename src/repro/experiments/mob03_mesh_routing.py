"""Mobile mesh routing: DSDV delivery ratio and route repair vs node speed.

This experiment goes **beyond the paper**: Section 5 hardwires every
multi-hop route, so the PR 2 mobility subsystem could move nodes but never
re-route around them.  Here a sparse grid mesh (grid spacing below the
~12.5 m decodability limit, corners several hops apart) runs the full
dynamic control plane of :mod:`repro.net.dynamic_routing`: HELLO beacons
detect link churn as intermediate nodes roam under random-waypoint mobility,
and DSDV repairs the corner-to-corner path through whichever relays are
currently in range.

Reported per policy (NA / UA / BA) over the swept roamer speed:

* ``<policy> delivery`` — end-to-end delivery ratio of a corner-to-corner
  UDP CBR flow (received / sent);
* ``<policy> repair s`` — mean route-repair latency at the source: the gap
  between a "broken" and the next "restored" event for the flow destination
  in the source router's route log (0 when no break occurred);
* ``<policy> ctrl frac`` — network-wide control-plane overhead: HELLO + DSDV
  bytes as a fraction of all MAC payload bytes sent, straight from
  ``mac.stats`` so goodput numbers stay honest.
"""

from __future__ import annotations

from statistics import mean
from typing import Sequence, Tuple

from repro.apps.cbr import CbrSource, UdpSink
from repro.core.policies import (
    AggregationPolicy,
    broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.errors import ExperimentError
from repro.mobility.models import RandomWaypoint
from repro.net.dynamic_routing import DsdvConfig
from repro.sim.simulator import Simulator
from repro.stats.results import ExperimentResult, Series
from repro.topology.network import Network, populate_grid

DEFAULT_SPEEDS_MPS = (1.0, 3.0, 6.0)

#: Grid spacing: safely inside the ~12.5 m decodability limit of the default
#: indoor propagation model, so adjacent grid nodes are solid neighbors while
#: diagonal-plus-one nodes are not.
DEFAULT_GRID_SPACING_M = 8.0


def _run_once(policy: AggregationPolicy, speed: float, grid_side: int,
              grid_spacing_m: float, hello_interval: float,
              advertise_interval: float, cbr_interval: float,
              cbr_payload_bytes: int, warmup: float, duration: float,
              rate_mbps: float, seed: int) -> Tuple[float, float, float]:
    """One mesh run; returns (delivery ratio, mean repair latency, ctrl fraction)."""
    sim = Simulator(seed=seed)
    routing = DsdvConfig(hello_interval=hello_interval,
                         advertise_interval=advertise_interval)
    network = Network(sim, policy, unicast_rate_mbps=rate_mbps, routing=routing)

    # Corner nodes (source and destination) stay pinned; every interior node
    # roams the grid's bounding box under random waypoint.
    corners = ((0, 0), (grid_side - 1, grid_side - 1))

    def model_factory(row, col, area):
        if (row, col) in corners or speed <= 0:
            return None
        return RandomWaypoint(area=area, speed_range=(speed, speed))

    nodes = populate_grid(network, grid_side, grid_spacing_m, model_factory)

    source_node = nodes[0]       # corner (0, 0)
    sink_node = nodes[-1]        # corner (grid_side - 1, grid_side - 1)
    sink = UdpSink(sink_node)
    source = CbrSource(source_node, sink_node.ip, interval=cbr_interval,
                       payload_bytes=cbr_payload_bytes)
    # Let DSDV converge on the initial topology before offering traffic.
    source.start(warmup)
    sim.run(until=duration)

    sent = source.packets_sent
    delivery = sink.packets_received / sent if sent else 0.0
    repairs = source_node.router.repair_latencies(sink_node.ip)
    repair_latency = mean(repairs) if repairs else 0.0
    payload = sum(node.mac_stats.payload_bytes_sent for node in network.nodes)
    control = sum(node.mac_stats.routing_bytes_sent for node in network.nodes)
    control_fraction = control / payload if payload else 0.0
    return delivery, repair_latency, control_fraction


def run(speeds_mps: Sequence[float] = DEFAULT_SPEEDS_MPS, grid_side: int = 3,
        grid_spacing_m: float = DEFAULT_GRID_SPACING_M,
        hello_interval: float = 0.5, advertise_interval: float = 1.5,
        cbr_interval: float = 0.06, cbr_payload_bytes: int = 500,
        warmup: float = 3.0, duration: float = 20.0, rate_mbps: float = 0.65,
        include_no_aggregation: bool = True, seed: int = 1) -> ExperimentResult:
    """Sweep roamer speed; report delivery, repair latency and overhead per policy."""
    if grid_side < 2:
        raise ExperimentError("mob03 needs at least a 2x2 grid")
    if warmup >= duration:
        raise ExperimentError("warmup must end before the run does")
    result = ExperimentResult(
        experiment_id="mob03",
        description="DSDV mesh: delivery ratio + route repair vs speed (NA/UA/BA)",
    )
    variants = [("UA", unicast_aggregation), ("BA", broadcast_aggregation)]
    if include_no_aggregation:
        variants.insert(0, ("NA", no_aggregation))
    for label, policy_factory in variants:
        delivery_series = result.add_series(Series(label=f"{label} delivery"))
        repair_series = result.add_series(Series(label=f"{label} repair s"))
        control_series = result.add_series(Series(label=f"{label} ctrl frac"))
        for speed in speeds_mps:
            delivery, repair, control = _run_once(
                policy_factory(), speed=speed, grid_side=grid_side,
                grid_spacing_m=grid_spacing_m, hello_interval=hello_interval,
                advertise_interval=advertise_interval, cbr_interval=cbr_interval,
                cbr_payload_bytes=cbr_payload_bytes, warmup=warmup,
                duration=duration, rate_mbps=rate_mbps, seed=seed)
            delivery_series.add(speed, delivery)
            repair_series.add(speed, repair)
            control_series.add(speed, control)

    result.note("Beyond the paper: corner-to-corner traffic crosses a grid mesh "
                "whose interior relays roam under random waypoint; DSDV "
                "(HELLO discovery + sequence-numbered advertisements) repairs "
                "the path instead of relying on the paper's static routes.")
    result.note("Control-plane beacons ride through the real MAC, so the "
                "aggregation policy prices them differently: under BA they "
                "share frames with data, under NA each beacon pays its own "
                "contention.")
    return result


#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "mob03"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"speeds_mps": (2.0,), "grid_side": 2, "duration": 6.0,
               "warmup": 2.0, "include_no_aggregation": False}
