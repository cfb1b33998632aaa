"""Reusable scenario runners.

Three workloads cover the whole evaluation section of the paper:

* a one-way TCP file transfer over an N-hop chain (Figures 8, 10–14,
  Tables 3, 4, 8),
* the same transfer over the star topology with two simultaneous sessions
  (Figure 12, Tables 5–7),
* a saturating UDP flow over a chain, optionally with per-node broadcast
  flooding (Table 2, Figures 7 and 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.cbr import CbrSource, UdpSink
from repro.apps.file_transfer import (
    PAPER_FILE_BYTES,
    FileTransferReceiver,
    FileTransferSender,
    run_file_transfer_pair,
)
from repro.core.policies import AggregationPolicy
from repro.errors import ExperimentError
from repro.net.flooding import FloodingSource
from repro.sim.simulator import Simulator
from repro.topology.builders import build_linear_chain, build_star
from repro.topology.network import Network
from repro.units import mbps


# ---------------------------------------------------------------------------
# TCP over a linear chain
# ---------------------------------------------------------------------------

@dataclass
class TcpRunResult:
    """Outcome of one TCP file transfer over a chain."""

    throughput_mbps: float
    completion_time: Optional[float]
    network: Network
    sender: FileTransferSender
    receiver: FileTransferReceiver

    @property
    def complete(self) -> bool:
        """True when the whole file arrived."""
        return self.receiver.complete


def _policy_map(policy: AggregationPolicy, node_count: int,
                relay_policy: Optional[AggregationPolicy]) -> object:
    """Endpoints use ``policy``; relays optionally use ``relay_policy`` (DBA)."""
    if relay_policy is None:
        return policy
    mapping: Dict[int, AggregationPolicy] = {}
    for index in range(1, node_count + 1):
        is_relay = 1 < index < node_count
        mapping[index] = relay_policy if is_relay else policy
    return mapping


def run_tcp_transfer(policy: AggregationPolicy, hops: int = 2, rate_mbps: float = 0.65,
                     broadcast_rate_mbps: Optional[float] = None,
                     file_bytes: int = PAPER_FILE_BYTES, seed: int = 1,
                     relay_policy: Optional[AggregationPolicy] = None,
                     use_block_ack: bool = False,
                     use_rts_cts: bool = True,
                     max_sim_time: float = 600.0) -> TcpRunResult:
    """One-way file transfer from node 1 to node ``hops + 1`` (Figure 5)."""
    sim = Simulator(seed=seed)
    network = build_linear_chain(
        sim, hops=hops, policy=_policy_map(policy, hops + 1, relay_policy),
        unicast_rate_mbps=rate_mbps, broadcast_rate_mbps=broadcast_rate_mbps,
        use_block_ack=use_block_ack, use_rts_cts=use_rts_cts,
    )
    sender, receiver = run_file_transfer_pair(network.node(1), network.node(hops + 1),
                                              file_bytes=file_bytes)
    sim.run(until=max_sim_time)
    throughput = receiver.throughput_mbps(transfer_start=0.0)
    return TcpRunResult(throughput_mbps=throughput, completion_time=receiver.completion_time,
                        network=network, sender=sender, receiver=receiver)


# ---------------------------------------------------------------------------
# TCP over the star topology
# ---------------------------------------------------------------------------

@dataclass
class StarRunResult:
    """Outcome of the two-session star scenario (Figure 6)."""

    session_throughputs_mbps: List[float]
    network: Network
    receivers: List[FileTransferReceiver] = field(default_factory=list)

    @property
    def worst_case_throughput_mbps(self) -> float:
        """Throughput of the slowest session — the metric Figure 12 reports."""
        return min(self.session_throughputs_mbps) if self.session_throughputs_mbps else 0.0


def run_star_tcp(policy: AggregationPolicy, rate_mbps: float = 0.65,
                 broadcast_rate_mbps: Optional[float] = None,
                 file_bytes: int = PAPER_FILE_BYTES, seed: int = 1,
                 relay_policy: Optional[AggregationPolicy] = None,
                 max_sim_time: float = 1200.0) -> StarRunResult:
    """Two TCP sessions (3 → 1 and 4 → 1) through the central relay (node 2)."""
    sim = Simulator(seed=seed)
    policies = policy
    if relay_policy is not None:
        policies = {1: policy, 2: relay_policy, 3: policy, 4: policy}
    network = build_star(sim, policy=policies, unicast_rate_mbps=rate_mbps,
                         broadcast_rate_mbps=broadcast_rate_mbps)

    receivers: List[FileTransferReceiver] = []
    throughputs: List[float] = []
    client = network.node(1)
    for port, server_index in ((5001, 3), (5002, 4)):
        receiver = FileTransferReceiver(client, local_port=port, expected_bytes=file_bytes)
        sender = FileTransferSender(network.node(server_index), destination=client.ip,
                                    destination_port=port, file_bytes=file_bytes)
        sender.start(0.0)
        receivers.append(receiver)
    sim.run(until=max_sim_time)
    for receiver in receivers:
        throughputs.append(receiver.throughput_mbps(transfer_start=0.0))
    return StarRunResult(session_throughputs_mbps=throughputs, network=network,
                         receivers=receivers)


# ---------------------------------------------------------------------------
# Saturating UDP (optionally with flooding)
# ---------------------------------------------------------------------------

#: The first second of every UDP saturation run is excluded from its
#: throughput: queues are still filling.
UDP_WARMUP_S = 1.0


@dataclass
class UdpRunResult:
    """Outcome of one UDP saturation run.

    ``throughput_mbps`` covers the post-warmup measurement window only;
    ``warmup_bytes`` records how many sink bytes the warmup excluded.
    """

    throughput_mbps: float
    packets_received: int
    network: Network
    sink: UdpSink
    warmup_bytes: int = 0
    flooders: List[FloodingSource] = field(default_factory=list)


def run_udp_saturation(policy: AggregationPolicy, hops: int = 2, rate_mbps: float = 0.65,
                       duration: float = 20.0, seed: int = 1,
                       flooding_interval: Optional[float] = None,
                       flooding_payload_bytes: int = 64) -> UdpRunResult:
    """Saturating UDP flow from node 1 to node ``hops + 1``, optional flooding on all nodes.

    The source offers twice the PHY rate in paper-sized datagrams
    (:meth:`CbrSource.saturating`'s defaults).
    """
    if duration <= UDP_WARMUP_S:
        raise ExperimentError("duration must exceed the warmup period")
    sim = Simulator(seed=seed)
    network = build_linear_chain(sim, hops=hops, policy=policy,
                                 unicast_rate_mbps=rate_mbps)
    source_node = network.node(1)
    sink_node = network.node(hops + 1)
    sink = UdpSink(sink_node)
    source = CbrSource.saturating(source_node, sink_node.ip, link_rate_bps=mbps(rate_mbps))
    source.start(0.001)

    flooders: List[FloodingSource] = []
    if flooding_interval is not None:
        for node in network.nodes:
            flooder = FloodingSource(sim, node.network, node.ip, interval=flooding_interval,
                                     payload_bytes=flooding_payload_bytes)
            flooder.start()
            flooders.append(flooder)

    # The sink counts every byte from t=0; a snapshot at the end of the
    # warmup lets it measure throughput over the remaining window only.
    sink.snapshot_at(UDP_WARMUP_S)
    sim.run(until=duration)
    throughput = sink.throughput_mbps(measurement_start=UDP_WARMUP_S,
                                      measurement_end=duration)
    return UdpRunResult(throughput_mbps=throughput, packets_received=sink.packets_received,
                        network=network, sink=sink, warmup_bytes=sink.bytes_at(UDP_WARMUP_S),
                        flooders=flooders)
