"""Mobile relay handoff: 2-hop TCP while the relay drifts out of range.

This experiment goes **beyond the paper**: every TCP result in Section 5 runs
over a frozen chain.  Here the two endpoints sit just outside each other's
radio range, so all traffic must cross a relay — and the relay circles on a
deterministic orbit that carries it out of range of both endpoints and back
once per period.  While the relay is away the transfer stalls (MAC retries
exhaust, TCP backs off its RTO); when it returns, the connection must recover
and resume.  Sweeping the orbit period trades outage length against outage
frequency.

Reported per policy (NA / UA / BA) over the swept orbit period: end-to-end
throughput of a fixed-size file transfer (0 when the file does not complete
within ``max_sim_time``).  A stationary-relay baseline (relay pinned at the
orbit's closest point) is recorded per policy as the no-outage reference.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.apps.file_transfer import run_file_transfer_pair
from repro.core.policies import (
    AggregationPolicy,
    broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.errors import ExperimentError
from repro.mobility.models import CircularOrbit
from repro.sim.simulator import Simulator
from repro.stats.results import ExperimentResult, Series
from repro.topology.network import Network

DEFAULT_ORBIT_PERIODS_S = (10.0, 20.0, 40.0)

#: Endpoint separation: beyond the ~12.6 m decodability limit of the default
#: indoor propagation model, so the endpoints cannot hear each other directly.
DEFAULT_ENDPOINT_GAP_M = 14.0


def _run_once(policy: AggregationPolicy, orbit_period: Optional[float],
              orbit_radius_m: float, endpoint_gap_m: float, file_bytes: int,
              rate_mbps: float, max_sim_time: float, idle_reprobe: bool, seed: int):
    """One transfer; ``orbit_period=None`` pins the relay at its start point.

    Returns (throughput Mbps, fraction of the file delivered) — the fraction
    distinguishes "stalled forever" from "almost made it" when the transfer
    does not complete within ``max_sim_time``.
    """
    sim = Simulator(seed=seed)
    network = Network(sim, policy, unicast_rate_mbps=rate_mbps)
    half = endpoint_gap_m / 2.0
    network.add_node((-half, 0.0))
    # The relay starts at the midpoint (in range of both endpoints); its
    # orbit center sits orbit_radius above it, so once per period it climbs
    # to 2x the radius away from the endpoint axis and returns.
    model = None
    if orbit_period is not None:
        model = CircularOrbit(radius=orbit_radius_m, period=orbit_period)
    network.add_node((0.0, 0.0), model)
    network.add_node((half, 0.0))
    network.connect_chain(1, 2, 3)

    options = {"idle_reprobe": True} if idle_reprobe else None
    _, receiver = run_file_transfer_pair(network.node(1), network.node(3),
                                         file_bytes=file_bytes,
                                         connection_options=options)
    sim.run(until=max_sim_time)
    fraction = min(receiver.bytes_received / file_bytes, 1.0)
    return receiver.throughput_mbps(transfer_start=0.0), fraction


def run(orbit_periods: Sequence[float] = DEFAULT_ORBIT_PERIODS_S,
        orbit_radius_m: float = 5.0, endpoint_gap_m: float = DEFAULT_ENDPOINT_GAP_M,
        file_bytes: int = 60_000, rate_mbps: float = 0.65,
        max_sim_time: float = 120.0, include_no_aggregation: bool = True,
        include_stationary_baseline: bool = True, tcp_idle_reprobe: bool = False,
        seed: int = 1) -> ExperimentResult:
    """Sweep the relay's orbit period; report TCP throughput per policy.

    ``tcp_idle_reprobe=True`` enables the bounded idle re-probe mitigation
    for the RTO/orbit phase-locking (off by default so the experiment's
    published numbers are unchanged): after repeated RTOs the sender probes
    the path every few seconds instead of riding the exponential backoff, so
    the transfer resumes promptly once the relay returns.
    """
    if any(period <= 0 for period in orbit_periods):
        raise ExperimentError("orbit periods must be positive")
    result = ExperimentResult(
        experiment_id="mob02",
        description="2-hop TCP throughput vs relay orbit period (NA/UA/BA)",
    )
    variants = [("UA", unicast_aggregation), ("BA", broadcast_aggregation)]
    if include_no_aggregation:
        variants.insert(0, ("NA", no_aggregation))
    for label, policy_factory in variants:
        series = result.add_series(Series(label=label))
        progress = result.add_series(Series(label=f"{label} received fraction"))
        completed = 0
        for period in orbit_periods:
            throughput, fraction = _run_once(
                policy_factory(), orbit_period=period, orbit_radius_m=orbit_radius_m,
                endpoint_gap_m=endpoint_gap_m, file_bytes=file_bytes,
                rate_mbps=rate_mbps, max_sim_time=max_sim_time,
                idle_reprobe=tcp_idle_reprobe, seed=seed)
            series.add(period, throughput)
            progress.add(period, fraction)
            completed += 1 if throughput > 0 else 0
        result.add_metric(f"completed_fraction_{label}", completed / len(orbit_periods))
        if include_stationary_baseline:
            baseline, _ = _run_once(
                policy_factory(), orbit_period=None, orbit_radius_m=orbit_radius_m,
                endpoint_gap_m=endpoint_gap_m, file_bytes=file_bytes,
                rate_mbps=rate_mbps, max_sim_time=max_sim_time,
                idle_reprobe=tcp_idle_reprobe, seed=seed)
            result.add_metric(f"stationary_baseline_{label}", baseline)

    result.add_metric("relay_min_link_distance_m", endpoint_gap_m / 2.0)
    result.add_metric("relay_peak_link_distance_m",
                      math.hypot(endpoint_gap_m / 2.0, 2.0 * orbit_radius_m))
    result.note("Beyond the paper: the relay of the Figure 5 chain is mobile; the "
                "endpoints are out of mutual range, so throughput collapses to the "
                "handoff dynamics of the orbiting relay.")
    result.note("Slow orbits can stall transfers entirely: TCP's exponentially "
                "backed-off RTO (capped at 60 s) phase-locks with the outage "
                "cycle, so end-to-end retries keep landing while the relay is "
                "away — see the received-fraction series for partial progress.")
    return result


#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "mob02"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"orbit_periods": (8.0,), "file_bytes": 30_000, "max_sim_time": 30.0,
               "include_stationary_baseline": False}
