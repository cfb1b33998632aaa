"""Unit tests for the transmit-side aggregator."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.aggregator import AggregateBuild, Aggregator
from repro.core.policies import (
    broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.errors import AggregationError
from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.frames import subframe_for_packet
from repro.mac.queues import TransmitQueues
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader
from repro.obs.session import observe
from repro.phy.rates import HYDRA_BASE_RATE, rate_for_mbps
from repro.sim import Simulator
from repro.topology import Network
from repro.units import kilobytes

from helpers.obs import audit_balanced


def data_subframe(dst_index=2, payload=1357):
    header = TcpHeader(src_port=1, dst_port=2, flags_ack=True)
    packet = Packet.tcp_segment(IpAddress("10.0.0.1"), IpAddress("10.0.0.9"), header,
                                payload_bytes=payload)
    return subframe_for_packet(packet, MacAddress.node(1), MacAddress.node(dst_index))


def ack_subframe(dst_index=2):
    header = TcpHeader(src_port=2, dst_port=1, flags_ack=True)
    packet = Packet.tcp_segment(IpAddress("10.0.0.9"), IpAddress("10.0.0.1"), header)
    return subframe_for_packet(packet, MacAddress.node(3), MacAddress.node(dst_index),
                               broadcast_portion=True)


def flood_subframe():
    packet = Packet.broadcast_control(IpAddress("10.0.0.1"), payload_bytes=64)
    return subframe_for_packet(packet, MacAddress.node(1), BROADCAST_MAC)


def queues_with(unicast=(), broadcast=()):
    queues = TransmitQueues()
    for sf in broadcast:
        queues.enqueue_broadcast(sf)
    for sf in unicast:
        queues.enqueue_unicast(sf)
    return queues


# ---------------------------------------------------------------------------
# Policy-driven composition
# ---------------------------------------------------------------------------

def test_na_builds_single_subframe_per_transmission():
    aggregator = Aggregator(no_aggregation())
    queues = queues_with(unicast=[data_subframe(), data_subframe()])
    build = aggregator.build(queues)
    assert build.subframe_count == 1
    assert queues.total_count == 1


def test_ua_gathers_same_destination_within_budget():
    aggregator = Aggregator(unicast_aggregation(max_aggregate_bytes=kilobytes(5)))
    queues = queues_with(unicast=[data_subframe(2), data_subframe(2), data_subframe(2),
                                  data_subframe(2)])
    build = aggregator.build(queues)
    # 3 x 1464 = 4392 <= 5120 but a 4th does not fit.
    assert len(build.unicast_subframes) == 3
    assert build.total_bytes <= kilobytes(5)
    assert queues.total_count == 1


def test_ua_only_aggregates_matching_destination():
    aggregator = Aggregator(unicast_aggregation())
    queues = queues_with(unicast=[data_subframe(2), data_subframe(3), data_subframe(2)])
    build = aggregator.build(queues)
    assert build.destination == MacAddress.node(2)
    assert len(build.unicast_subframes) == 2
    assert queues.head_unicast_destination() == MacAddress.node(3)


def test_ua_does_not_mix_broadcast_and_unicast():
    aggregator = Aggregator(unicast_aggregation())
    queues = queues_with(unicast=[data_subframe()], broadcast=[flood_subframe()])
    build = aggregator.build(queues)
    # The broadcast queue is drained first and travels alone under UA.
    assert build.broadcast_subframes and not build.unicast_subframes
    second = aggregator.build(queues)
    assert second.unicast_subframes and not second.broadcast_subframes


def test_ba_prepends_broadcast_portion_to_unicast_portion():
    aggregator = Aggregator(broadcast_aggregation())
    queues = queues_with(unicast=[data_subframe(2), data_subframe(2)],
                         broadcast=[ack_subframe(5), flood_subframe()])
    build = aggregator.build(queues)
    assert len(build.broadcast_subframes) == 2
    assert len(build.unicast_subframes) == 2
    assert build.destination == MacAddress.node(2)
    assert queues.empty


def test_ba_broadcast_only_frame_when_no_unicast_queued():
    aggregator = Aggregator(broadcast_aggregation())
    queues = queues_with(broadcast=[ack_subframe(5), ack_subframe(6)])
    build = aggregator.build(queues)
    assert build.broadcast_subframes and not build.has_unicast


def test_forward_aggregation_disabled_limits_to_one_each():
    aggregator = Aggregator(broadcast_aggregation().without_forward_aggregation())
    queues = queues_with(unicast=[data_subframe(2), data_subframe(2)],
                         broadcast=[ack_subframe(5), ack_subframe(5)])
    build = aggregator.build(queues)
    assert len(build.broadcast_subframes) == 1
    assert len(build.unicast_subframes) == 1


def test_budget_respected_but_first_subframe_always_fits():
    tiny_budget = Aggregator(unicast_aggregation(max_aggregate_bytes=1000))
    queues = queues_with(unicast=[data_subframe(2), data_subframe(2)])
    build = tiny_budget.build(queues)
    # 1464 > 1000 but a frame cannot be fragmented: exactly one is taken.
    assert len(build.unicast_subframes) == 1


def test_empty_queues_give_empty_build():
    aggregator = Aggregator(broadcast_aggregation())
    build = aggregator.build(TransmitQueues())
    assert build.empty
    with pytest.raises(AggregationError):
        build.to_phy_frame(HYDRA_BASE_RATE)


def test_to_phy_frame_sets_rates():
    aggregator = Aggregator(broadcast_aggregation())
    queues = queues_with(unicast=[data_subframe(2)], broadcast=[ack_subframe(5)])
    build = aggregator.build(queues)
    frame = build.to_phy_frame(rate_for_mbps(2.6), rate_for_mbps(0.65))
    assert frame.unicast_rate.data_rate_mbps == 2.6
    assert frame.broadcast_rate.data_rate_mbps == 0.65
    assert frame.total_bytes == build.total_bytes


def test_without_broadcast_portion_copy():
    build = AggregateBuild(broadcast_subframes=[ack_subframe(5)],
                           unicast_subframes=[data_subframe(2)],
                           destination=MacAddress.node(2))
    retry = build.without_broadcast_portion()
    assert retry.broadcast_subframes == []
    assert retry.unicast_subframes == build.unicast_subframes
    assert retry.destination == build.destination


@given(n_unicast=st.integers(min_value=0, max_value=12),
       n_broadcast=st.integers(min_value=0, max_value=12),
       budget_kb=st.integers(min_value=2, max_value=16))
def test_build_never_exceeds_budget_beyond_first_subframe(n_unicast, n_broadcast, budget_kb):
    """Invariant: an aggregate exceeds the byte budget only if it is a single subframe."""
    aggregator = Aggregator(broadcast_aggregation(max_aggregate_bytes=kilobytes(budget_kb)))
    queues = queues_with(unicast=[data_subframe(2) for _ in range(n_unicast)],
                         broadcast=[ack_subframe(5) for _ in range(n_broadcast)])
    build = aggregator.build(queues)
    if build.subframe_count > 1:
        assert build.total_bytes <= kilobytes(budget_kb)


def test_unsent_broadcast_portion_dies_with_the_failed_rts_chain():
    # The destination is far out of range: no RTS is ever answered, so after
    # the retry limit the whole aggregate is given up — including the
    # broadcast portion, which never reached the air.
    with observe(trace=True, metrics=True, journey=True) as session:
        sim = Simulator(seed=7)
        network = Network(sim, policy=broadcast_aggregation(), unicast_rate_mbps=1.3)
        network.add_node((0.0, 0.0))
        network.add_node((200.0, 0.0))
        network.connect_chain(1, 2)
        node = network.node(1)
        sender = node.udp.bind(9000)
        sim.schedule_at(0.5, sender.send_to, network.node(2).ip, 9000, 500)
        sim.schedule_at(0.5, node.network.send,
                        Packet.broadcast_control(node.ip, 64, created_at=0.5))
        sim.run(until=10.0)
    assert node.mac.stats.data_transmissions == 0
    (document,) = session.journey_documents()["simulations"]
    (flood,) = [j for j in document["journeys"] if j["protocol"] == "flood"]
    assert (flood["fate"], flood["fate_reason"]) == ("dropped", "retry_limit")
    last = flood["events"][-1]
    assert (last["layer"], last["event"], last["fields"], last["node"]) == (
        "mac", "drop", {"reason": "retry_limit"}, "node1")
    assert not [e for e in flood["events"] if e["event"] in ("tx", "sent_unacked")]
    assert audit_balanced(session)
