"""Integration tests for the DCF MAC: single-hop exchanges over the real PHY/channel."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.channel import WirelessChannel
from repro.core import broadcast_aggregation, no_aggregation, unicast_aggregation
from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.dcf import (
    ACK_AIRTIME,
    ACK_TIMEOUT,
    CTS_AIRTIME,
    CTS_TIMEOUT,
    AggregatingMac,
    MacConfig,
    MacState,
)
from repro.mac.frames import RTS_FRAME_BYTES
from repro.mac.timing import RETRY_LIMIT, SIFS
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader
from repro.phy.device import Phy
from repro.phy.frame import FrameKind
from repro.phy.rates import HYDRA_BASE_RATE, rate_for_mbps
from repro.phy.timing import control_airtime, frame_airtime
from repro.sim import Simulator

from helpers.mobility import Jumps


def build_pair(sim, policy_a=None, policy_b=None, rate_mbps=1.3, spacing=2.5):
    channel = WirelessChannel(sim)
    macs = []
    for index, policy in ((1, policy_a), (2, policy_b)):
        phy = Phy(sim, channel, position=((index - 1) * spacing, 0.0), name=f"phy{index}")
        config = MacConfig(address=MacAddress.node(index), unicast_rate=rate_for_mbps(rate_mbps))
        mac = AggregatingMac(sim, phy, config, policy=policy or broadcast_aggregation(),
                             name=f"mac{index}")
        macs.append(mac)
    return channel, macs[0], macs[1]


def collect(mac) -> List[Tuple[Packet, MacAddress]]:
    received = []
    mac.set_receive_callback(lambda packet, src: received.append((packet, src)))
    return received


def mac_events(sim, source):
    """``(time, event, fields)`` of every trace record ``source`` emits."""
    events = []
    sim.tracer.add_listener(
        lambda record: events.append((record.time, record.event, record.fields))
        if record.source == source else None)
    return events


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


def test_cts_timeout_is_armed_when_the_rts_ends():
    sim = Simulator(seed=44)
    channel = WirelessChannel(sim)
    # Only one node on the channel: the CTS never comes.
    phy = Phy(sim, channel, position=(0.0, 0.0), name="lonely")
    config = MacConfig(address=MacAddress.node(1), unicast_rate=rate_for_mbps(1.3))
    mac = AggregatingMac(sim, phy, config, policy=unicast_aggregation(), name="lonely-mac")
    events = mac_events(sim, "lonely-mac")
    mac.enqueue(tcp_data(), MacAddress.node(2))
    sim.run(until=0.1)
    rts_at = [time for time, event, _ in events if event == "rts"]
    failures = [(time, fields["data_sent"]) for time, event, fields in events
                if event == "exchange_failed"]
    rts_end = [start + control_airtime(RTS_FRAME_BYTES, HYDRA_BASE_RATE) for start in rts_at]
    assert len(failures) == RETRY_LIMIT + 1
    assert failures == [(pytest.approx(end + CTS_TIMEOUT), False) for end in rts_end]
    assert mac.stats.data_transmissions == 0


def test_ack_timeout_is_armed_when_the_data_frame_ends():
    # At 2.6 Mbps over 5 m the base-rate RTS and CTS get through but the
    # data frame does not, so every exchange ends waiting for the ACK.
    sim = Simulator(seed=45)
    _, a, b = build_pair(sim, rate_mbps=2.6, spacing=5.0)
    events = mac_events(sim, "mac1")
    a.enqueue(tcp_data(), MacAddress.node(2))
    sim.run(until=1.0)
    data_ends = [time for time, event, _ in events if event == "sent_unacked"]
    failures = [(time, fields["data_sent"]) for time, event, fields in events
                if event == "exchange_failed"]
    assert len(data_ends) == b.stats.cts_sent == RETRY_LIMIT + 1
    assert failures == [(pytest.approx(end + ACK_TIMEOUT), True) for end in data_ends]
    assert b.stats.acks_sent == 0
    assert a.stats.unicast_drops == 1


def sent_frames(sim, phy_name):
    """``(frame, duration)`` of every frame ``phy_name`` puts on the air."""
    sent = []
    sim.tracer.add_listener(
        lambda record: sent.append((record.fields["frame"], record.fields["duration"]))
        if record.source == phy_name and record.event == "tx_start" else None)
    return sent


@pytest.mark.parametrize("away_until", [None, 0.004],
                         ids=["first-attempt", "after-cts-timeouts"])
def test_data_frame_has_the_airtime_its_rts_reserved(away_until):
    """The DATA frame an exchange sends is the one its RTS was sized with,
    on the first attempt and after CTS timeouts; a broadcast-only exchange
    afterwards sends a frame of its own."""
    sim = Simulator(seed=46)
    channel = WirelessChannel(sim)
    # With ``away_until``, node 2 is out of reach until then: the first
    # RTSs get no CTS and the exchange is retried.
    model = None if away_until is None else Jumps(
        ((0.0, (500.0, 0.0)), (away_until, (2.5, 0.0))))
    phys = (Phy(sim, channel, position=(0.0, 0.0), name="phy1"),
            Phy(sim, channel, position=(2.5, 0.0), name="phy2", mobility=model))
    a, _ = (AggregatingMac(sim, phy, MacConfig(address=MacAddress.node(index),
                                               unicast_rate=rate_for_mbps(1.3)),
                           policy=no_aggregation(), name=f"mac{index}")
            for index, phy in enumerate(phys, start=1))
    sent = sent_frames(sim, "phy1")
    events = mac_events(sim, "mac1")
    data = tcp_data()
    a.enqueue(data, MacAddress.node(2))
    sim.run(until=0.5)
    flood = Packet.broadcast_control(IpAddress("10.0.0.1"), 64)
    a.enqueue(flood, BROADCAST_MAC)
    sim.run(until=1.0)

    failures = [fields for _, event, fields in events if event == "exchange_failed"]
    assert len(failures) == (0 if away_until is None else 2)
    assert [frame.kind for frame, _ in sent] == (
        [FrameKind.RTS] * (len(failures) + 1) + [FrameKind.DATA] * 2)
    (data_frame, data_duration), (flood_frame, flood_duration) = sent[-2:]
    assert [subframe.packet for subframe in data_frame.unicast_subframes] == [data]
    airtime = frame_airtime(0, data_frame.unicast_rate,
                            data_frame.unicast_bytes, data_frame.unicast_rate)
    assert data_duration == data_frame.airtime() == airtime
    for rts, _ in sent[:-2]:
        assert rts.control.duration == 3 * SIFS + CTS_AIRTIME + airtime + ACK_AIRTIME
    assert [subframe.packet for subframe in flood_frame.broadcast_subframes] == [flood]
    assert not flood_frame.unicast_subframes
    assert flood_duration == frame_airtime(flood_frame.broadcast_bytes,
                                           flood_frame.broadcast_rate, 0,
                                           flood_frame.unicast_rate)


def test_missing_ack_retries_the_unicast_portion_alone():
    # At 2.6 Mbps over 4 m this seed loses the first data frame.  Its
    # broadcast portion (a classified TCP ACK) went out unacknowledged with
    # it, so the retry carries the unicast portion alone.
    sim = Simulator(seed=2)
    _, a, b = build_pair(sim, rate_mbps=2.6, spacing=4.0)
    events = mac_events(sim, "mac1")
    received = collect(b)
    ack, data = tcp_ack(), tcp_data()
    a.enqueue(ack, MacAddress.node(2))
    a.enqueue(data, MacAddress.node(2))
    sim.run(until=1.0)
    exchange = [(event, fields["subframes"]) if event == "data_tx" else event
                for _, event, fields in events
                if event in ("data_tx", "exchange_failed", "exchange_done")]
    assert exchange == [("data_tx", 2), "exchange_failed", ("data_tx", 1), "exchange_done"]
    assert [packet for packet, _ in received] == [ack, data]
    assert a.stats.broadcast_subframes_sent == 1
