"""Mobile flooding: broadcast delivery ratio vs node speed for BA/UA/NA.

This experiment goes **beyond the paper**: Section 5's testbed is stationary,
so its flooding results (Figure 9) never see the neighbor set change.  Here a
pair of stationary anchor nodes carries a saturating UDP flow while the
remaining nodes roam the area under random-waypoint mobility, every node
flooding broadcast control packets.  Log-normal shadowing makes motion change
link loss, not just distance, so flood frames are lost whenever sender and
receiver drift out of range — and the aggregation policy decides how cheaply
the surviving floods ride along with the data traffic.

Reported per policy (NA / UA / BA) over the swept node speed:

* ``<policy> delivery`` — flood delivery ratio: packets received across all
  nodes divided by packets sent times (N - 1) potential receivers;
* ``<policy> udp Mbps`` — goodput of the anchor pair's UDP flow, showing what
  the flooding load costs the data traffic under each policy.
"""

from __future__ import annotations

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
from repro.net.flooding import FloodingSource
from repro.sim.simulator import Simulator
from repro.stats.results import ExperimentResult, Series
from repro.topology.network import Network
from repro.units import mbps

DEFAULT_SPEEDS_MPS = (0.5, 2.0, 6.0)

#: Spacing of the two stationary anchor nodes (the paper's 2.5 m).
ANCHOR_SPACING_M = 2.5


def _run_once(policy: AggregationPolicy, speed: float, node_count: int, area_m: float,
              flooding_interval: float, flooding_payload_bytes: int, duration: float,
              rate_mbps: float, shadowing_sigma_db: float, pause_time: float,
              seed: int) -> Tuple[float, float]:
    """One mobile flooding run; returns (delivery ratio, UDP goodput Mbps)."""
    sim = Simulator(seed=seed)
    network = Network(sim, policy, unicast_rate_mbps=rate_mbps,
                      shadowing_sigma_db=shadowing_sigma_db)

    # Two stationary anchors near the center carry the UDP flow.
    center = area_m / 2.0
    network.add_node((center - ANCHOR_SPACING_M / 2.0, center))
    network.add_node((center + ANCHOR_SPACING_M / 2.0, center))
    # Roaming nodes: placement and trajectories are drawn from dedicated
    # seeded streams, so runs replicate per seed and across processes.
    placement = sim.random.stream("mob01.placement")
    area = (0.0, 0.0, area_m, area_m)
    for _ in range(node_count - 2):
        position = (placement.uniform(0.0, area_m), placement.uniform(0.0, area_m))
        model = None
        if speed > 0:
            model = RandomWaypoint(area=area, speed_range=(speed, speed),
                                   pause_time=pause_time)
        network.add_node(position, model)
    network.connect_pair(1, 2)

    sink = UdpSink(network.node(2))
    source = CbrSource.saturating(network.node(1), network.node(2).ip,
                                  link_rate_bps=mbps(rate_mbps))
    source.start(0.001)
    flooders = []
    for node in network.nodes:
        flooder = FloodingSource(sim, node.network, node.ip,
                                 interval=flooding_interval,
                                 payload_bytes=flooding_payload_bytes)
        flooder.start()
        flooders.append(flooder)

    sim.run(until=duration)
    sent = sum(flooder.packets_sent for flooder in flooders)
    received = sum(node.network.stats.delivered_broadcast for node in network.nodes)
    potential = sent * (len(network.nodes) - 1)
    ratio = received / potential if potential else 0.0
    throughput = sink.throughput_mbps(measurement_start=0.0, measurement_end=duration)
    return ratio, throughput


def run(speeds_mps: Sequence[float] = DEFAULT_SPEEDS_MPS, node_count: int = 6,
        area_m: float = 26.0, flooding_interval: float = 0.25,
        flooding_payload_bytes: int = 64, duration: float = 8.0,
        rate_mbps: float = 0.65, shadowing_sigma_db: float = 4.0,
        pause_time: float = 0.0, seed: int = 1) -> ExperimentResult:
    """Sweep node speed; report flood delivery ratio and UDP goodput per policy."""
    if node_count < 2:
        raise ExperimentError("mob01 needs at least the two anchor nodes")
    result = ExperimentResult(
        experiment_id="mob01",
        description="flood delivery ratio vs node speed under mobility (NA/UA/BA)",
    )
    variants = [("NA", no_aggregation), ("UA", unicast_aggregation),
                ("BA", broadcast_aggregation)]
    for label, policy_factory in variants:
        delivery = result.add_series(Series(label=f"{label} delivery"))
        udp = result.add_series(Series(label=f"{label} udp Mbps"))
        for speed in speeds_mps:
            ratio, throughput = _run_once(
                policy_factory(), speed=speed, node_count=node_count, area_m=area_m,
                flooding_interval=flooding_interval,
                flooding_payload_bytes=flooding_payload_bytes, duration=duration,
                rate_mbps=rate_mbps, shadowing_sigma_db=shadowing_sigma_db,
                pause_time=pause_time, seed=seed)
            delivery.add(speed, ratio)
            udp.add(speed, throughput)

    top_speed = max(speeds_mps)
    ba = result.get_series("BA delivery")
    na = result.get_series("NA delivery")
    result.add_metric("ba_minus_na_delivery_at_top_speed",
                      ba.value_at(top_speed) - na.value_at(top_speed))
    result.note("Beyond the paper: Section 5 keeps all nodes stationary; here the "
                "flooding workload of Figure 9 runs while nodes roam under "
                "random-waypoint mobility and log-normal shadowing.")
    return result


#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "mob01"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"speeds_mps": (1.0, 4.0), "node_count": 4, "duration": 2.5,
               "flooding_interval": 0.2}
