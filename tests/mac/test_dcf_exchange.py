"""Integration tests for the DCF MAC: single-hop exchanges over the real PHY/channel."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.channel import WirelessChannel
from repro.core import broadcast_aggregation, no_aggregation, unicast_aggregation
from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.dcf import AggregatingMac, MacConfig, MacState
from repro.mac.timing import RETRY_LIMIT, SIFS, TIMEOUT_GUARD
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader
from repro.phy.device import Phy
from repro.phy.rates import HYDRA_BASE_RATE, rate_for_mbps
from repro.phy.timing import control_airtime
from repro.sim import Simulator


def build_pair(sim, policy_a=None, policy_b=None, rate_mbps=1.3, use_rts=True,
               use_block_ack=False, spacing=2.5):
    channel = WirelessChannel(sim)
    macs = []
    for index, policy in ((1, policy_a), (2, policy_b)):
        phy = Phy(sim, channel, position=((index - 1) * spacing, 0.0), name=f"phy{index}")
        config = MacConfig(address=MacAddress.node(index), unicast_rate=rate_for_mbps(rate_mbps),
                           use_rts_cts=use_rts, use_block_ack=use_block_ack)
        mac = AggregatingMac(sim, phy, config, policy=policy or broadcast_aggregation(),
                             name=f"mac{index}")
        macs.append(mac)
    return channel, macs[0], macs[1]


def collect(mac) -> List[Tuple[Packet, MacAddress]]:
    received = []
    mac.set_receive_callback(lambda packet, src: received.append((packet, src)))
    return received


def tcp_data(payload=1357):
    header = TcpHeader(src_port=1, dst_port=2, flags_ack=True)
    return Packet.tcp_segment(IpAddress("10.0.0.1"), IpAddress("10.0.0.2"), header,
                              payload_bytes=payload)


def tcp_ack():
    header = TcpHeader(src_port=2, dst_port=1, flags_ack=True)
    return Packet.tcp_segment(IpAddress("10.0.0.2"), IpAddress("10.0.0.1"), header)


def test_single_unicast_exchange_with_rts_cts_and_ack():
    sim = Simulator(seed=31)
    _, a, b = build_pair(sim)
    received = collect(b)
    a.enqueue(tcp_data(), MacAddress.node(2))
    sim.run(until=1.0)
    assert len(received) == 1
    assert received[0][1] == MacAddress.node(1)
    assert a.stats.data_transmissions == 1
    assert a.stats.rts_sent == 1
    assert a.stats.acks_received == 1
    assert b.stats.cts_sent == 1
    assert b.stats.acks_sent == 1
    assert a.state is MacState.IDLE and a.queues.empty


def test_each_mac_numbers_its_own_subframes_from_one():
    """802.11 sequence numbers are per transmitter: 1, 2, 3 at one MAC, and
    a second MAC starts at 1 again, whatever the first has sent."""
    sim = Simulator(seed=33)
    _, a, b = build_pair(sim)
    for _ in range(3):
        a.enqueue(tcp_data(), MacAddress.node(2))
    b.enqueue(tcp_ack(), BROADCAST_MAC)
    queued = a.queues.take_unicast_for(MacAddress.node(2), max_subframes=3,
                                       fits=lambda subframe: True)
    assert [subframe.sequence for subframe in queued] == [1, 2, 3]
    assert a.queues.empty
    assert b.queues.pop_broadcast_head().sequence == 1
    assert b.queues.empty


def test_exchange_without_rts_cts():
    sim = Simulator(seed=32)
    _, a, b = build_pair(sim, use_rts=False)
    received = collect(b)
    a.enqueue(tcp_data(), MacAddress.node(2))
    sim.run(until=1.0)
    assert len(received) == 1
    assert a.stats.rts_sent == 0
    assert a.stats.acks_received == 1


def test_unicast_aggregation_packs_multiple_packets_into_one_frame():
    sim = Simulator(seed=33)
    _, a, b = build_pair(sim, policy_a=unicast_aggregation())
    received = collect(b)
    for _ in range(3):
        a.enqueue(tcp_data(), MacAddress.node(2))
    sim.run(until=1.0)
    assert len(received) == 3
    assert a.stats.data_transmissions == 1
    assert a.stats.average_subframes_per_frame == pytest.approx(3.0)


def test_no_aggregation_sends_one_frame_per_packet():
    sim = Simulator(seed=34)
    _, a, b = build_pair(sim, policy_a=no_aggregation())
    received = collect(b)
    for _ in range(3):
        a.enqueue(tcp_data(), MacAddress.node(2))
    sim.run(until=2.0)
    assert len(received) == 3
    assert a.stats.data_transmissions == 3


def test_classified_tcp_ack_rides_in_broadcast_portion_without_link_ack():
    sim = Simulator(seed=35)
    _, a, b = build_pair(sim, policy_a=broadcast_aggregation())
    received = collect(b)
    a.enqueue(tcp_ack(), MacAddress.node(2))
    sim.run(until=1.0)
    assert len(received) == 1
    # A broadcast-only frame: no RTS and no link-level ACK.
    assert a.stats.rts_sent == 0
    assert a.stats.acks_received == 0
    assert b.stats.acks_sent == 0
    assert a.stats.broadcast_subframes_sent == 1
    assert a.stats.classified_ack_subframes_sent == 1


def test_tcp_ack_stays_unicast_when_classification_disabled():
    sim = Simulator(seed=36)
    _, a, b = build_pair(sim, policy_a=unicast_aggregation())
    received = collect(b)
    a.enqueue(tcp_ack(), MacAddress.node(2))
    sim.run(until=1.0)
    assert len(received) == 1
    assert a.stats.acks_received == 1
    assert a.stats.unicast_subframes_sent == 1


def test_data_and_reverse_ack_share_one_frame_with_ba():
    sim = Simulator(seed=37)
    _, a, b = build_pair(sim, policy_a=broadcast_aggregation())
    received = collect(b)
    a.enqueue(tcp_ack(), MacAddress.node(2))   # goes to the broadcast queue
    a.enqueue(tcp_data(), MacAddress.node(2))  # goes to the unicast queue
    sim.run(until=1.0)
    assert len(received) == 2
    assert a.stats.data_transmissions == 1
    assert a.stats.broadcast_subframes_sent == 1
    assert a.stats.unicast_subframes_sent == 1


def test_link_broadcast_delivered_to_all_neighbours():
    sim = Simulator(seed=38)
    channel = WirelessChannel(sim)
    macs = []
    for index in range(1, 4):
        phy = Phy(sim, channel, position=(index * 2.0, 0.0), name=f"phy{index}")
        config = MacConfig(address=MacAddress.node(index), unicast_rate=rate_for_mbps(1.3))
        macs.append(AggregatingMac(sim, phy, config, policy=broadcast_aggregation(),
                                   name=f"mac{index}"))
    received = [collect(mac) for mac in macs]
    flood = Packet.broadcast_control(IpAddress("10.0.0.1"), payload_bytes=64)
    macs[0].enqueue(flood, BROADCAST_MAC)
    sim.run(until=1.0)
    assert len(received[1]) == 1 and len(received[2]) == 1
    assert macs[0].stats.acks_received == 0


def test_overheard_classified_ack_not_delivered_to_third_party():
    sim = Simulator(seed=39)
    channel = WirelessChannel(sim)
    macs = []
    for index in range(1, 4):
        phy = Phy(sim, channel, position=(index * 2.0, 0.0), name=f"phy{index}")
        config = MacConfig(address=MacAddress.node(index), unicast_rate=rate_for_mbps(1.3))
        macs.append(AggregatingMac(sim, phy, config, policy=broadcast_aggregation(),
                                   name=f"mac{index}"))
    received = [collect(mac) for mac in macs]
    macs[0].enqueue(tcp_ack(), MacAddress.node(2))
    sim.run(until=1.0)
    assert len(received[1]) == 1   # the addressed next hop gets it
    assert len(received[2]) == 0   # the overhearing node drops it at the MAC
    assert macs[2].stats.overheard_dropped == 1


def test_two_contending_transmitters_both_deliver():
    sim = Simulator(seed=40)
    channel = WirelessChannel(sim)
    macs = []
    for index in range(1, 3):
        phy = Phy(sim, channel, position=(index * 2.0, 0.0), name=f"phy{index}")
        config = MacConfig(address=MacAddress.node(index), unicast_rate=rate_for_mbps(1.3))
        macs.append(AggregatingMac(sim, phy, config, policy=unicast_aggregation(),
                                   name=f"mac{index}"))
    received_a, received_b = collect(macs[0]), collect(macs[1])
    for _ in range(5):
        macs[0].enqueue(tcp_data(500), MacAddress.node(2))
        macs[1].enqueue(tcp_data(500), MacAddress.node(1))
    sim.run(until=5.0)
    assert len(received_b) == 5
    assert len(received_a) == 5


def test_block_ack_mode_completes_exchanges():
    sim = Simulator(seed=41)
    _, a, b = build_pair(sim, policy_a=unicast_aggregation(), use_block_ack=True)
    received = collect(b)
    for _ in range(3):
        a.enqueue(tcp_data(), MacAddress.node(2))
    sim.run(until=2.0)
    assert len(received) == 3
    assert a.stats.data_transmissions >= 1


def test_block_ack_timeout_is_armed_when_the_data_frame_ends():
    sim = Simulator(seed=44)
    channel = WirelessChannel(sim)
    # Only one node on the channel: the block ACK never comes.
    phy = Phy(sim, channel, position=(0.0, 0.0), name="lonely")
    config = MacConfig(address=MacAddress.node(1), unicast_rate=rate_for_mbps(1.3),
                       use_rts_cts=False, use_block_ack=True)
    mac = AggregatingMac(sim, phy, config, policy=unicast_aggregation(), name="lonely-mac")
    mac.enqueue(tcp_data(), MacAddress.node(2))
    while mac.state is not MacState.WAIT_ACK:
        sim.run(max_events=1)
    # The last event was the end of the data frame, which armed the timer.
    assert mac.stats.data_transmissions == 1 and mac.stats.rts_sent == 0
    assert mac._response_timer.expiry_time == sim.now + (
        SIFS + control_airtime(32, HYDRA_BASE_RATE) + TIMEOUT_GUARD)


def test_queue_overflow_counted():
    sim = Simulator(seed=42)
    channel = WirelessChannel(sim)
    phy = Phy(sim, channel, position=(0.0, 0.0), name="solo")
    config = MacConfig(address=MacAddress.node(1), unicast_rate=rate_for_mbps(1.3))
    mac = AggregatingMac(sim, phy, config, policy=no_aggregation(), name="solo-mac")
    mac.queues.capacity = 2
    for _ in range(5):
        mac.enqueue(tcp_data(), MacAddress.node(2))
    assert mac.stats.queue_drops >= 1


def test_queue_drop_metric_is_labelled_by_queue_kind():
    from repro.obs.session import observe

    with observe(metrics=True):
        sim = Simulator(seed=42)
    channel = WirelessChannel(sim)
    phy = Phy(sim, channel, position=(0.0, 0.0), name="solo")
    config = MacConfig(address=MacAddress.node(1), unicast_rate=rate_for_mbps(1.3))
    mac = AggregatingMac(sim, phy, config, policy=broadcast_aggregation(),
                         name="solo-mac")
    mac.queues.capacity = 1
    for _ in range(3):
        mac.enqueue(tcp_data(), MacAddress.node(2))
        mac.enqueue(Packet.broadcast_control(IpAddress("10.0.0.1"),
                                             payload_bytes=64), BROADCAST_MAC)
    counters = {(c["name"], c["labels"].get("kind")): c["value"]
                for c in sim.metrics.snapshot()["counters"]
                if c["name"] == "mac.queue_drops"}
    assert counters[("mac.queue_drops", "unicast")] == 2
    assert counters[("mac.queue_drops", "broadcast")] == 2


def test_unreachable_destination_gives_up_after_retry_limit():
    sim = Simulator(seed=43)
    channel = WirelessChannel(sim)
    # Only one node on the channel: nobody will ever answer the RTS.
    phy = Phy(sim, channel, position=(0.0, 0.0), name="lonely")
    config = MacConfig(address=MacAddress.node(1), unicast_rate=rate_for_mbps(1.3))
    mac = AggregatingMac(sim, phy, config, policy=unicast_aggregation(), name="lonely-mac")
    mac.enqueue(tcp_data(), MacAddress.node(2))
    sim.run(until=10.0)
    assert mac.stats.retransmissions >= RETRY_LIMIT
    assert mac.stats.unicast_drops == 1
    assert mac.state is MacState.IDLE
    assert mac.queues.empty
