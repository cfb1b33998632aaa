"""Tests of the MAC's transmit queues and of the queue choice, backoff and NAV
that :class:`~repro.mac.dcf.AggregatingMac` runs over them.

The queue choice, the binary-exponential backoff and the NAV are state of
the MAC itself, so they are checked through it: which queue an enqueued
packet lands in, and when the MAC's frames go on the air.  A PHY built
without a MAC plays the overheard sender: it puts a frame with a chosen
Duration field on the air at a chosen time.
"""

from __future__ import annotations

import pytest

from repro.channel import WirelessChannel
from repro.core import broadcast_aggregation, no_aggregation, unicast_aggregation
from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.dcf import ACK_AIRTIME, ACK_TIMEOUT, CTS_AIRTIME, CTS_TIMEOUT, AggregatingMac
from repro.mac.frames import RtsFrame, subframe_for_packet
from repro.mac.queues import TransmitQueues
from repro.mac.timing import (
    CW_MAX,
    CW_MIN,
    DIFS,
    RETRY_LIMIT,
    SIFS,
    SLOT_TIME,
    TIMEOUT_GUARD,
)
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader
from repro.phy.device import Phy
from repro.phy.frame import FrameKind, PhyFrame
from repro.phy.rates import HYDRA_BASE_RATE, rate_for_mbps
from repro.sim import Simulator


def make_subframe(dst_index=2, payload=1357):
    header = TcpHeader(src_port=1, dst_port=2, flags_ack=True)
    packet = Packet.tcp_segment(IpAddress("10.0.0.1"), IpAddress("10.0.0.9"), header,
                                payload_bytes=payload)
    dst = BROADCAST_MAC if dst_index is None else MacAddress.node(dst_index)
    return subframe_for_packet(packet, MacAddress.node(1), dst)


# ---------------------------------------------------------------------------
# TransmitQueues
# ---------------------------------------------------------------------------

def test_enqueue_and_counts():
    queues = TransmitQueues(capacity=4)
    assert queues.empty
    queues.enqueue_unicast(make_subframe())
    queues.enqueue_broadcast(make_subframe(dst_index=None))
    assert queues.broadcast_count == 1
    assert queues.total_count == 2
    assert not queues.empty


def test_queue_capacity_drops():
    queues = TransmitQueues(capacity=2)
    assert queues.enqueue_unicast(make_subframe())
    assert queues.enqueue_unicast(make_subframe())
    assert not queues.enqueue_unicast(make_subframe())
    assert queues.total_count == 2
    assert queues.enqueue_broadcast(make_subframe(dst_index=None))


def test_head_unicast_destination_and_take():
    queues = TransmitQueues()
    to2a, to3, to2b = make_subframe(2), make_subframe(3), make_subframe(2)
    for sf in (to2a, to3, to2b):
        queues.enqueue_unicast(sf)
    assert queues.head_unicast_destination() == MacAddress.node(2)
    taken = queues.take_unicast_for(MacAddress.node(2), max_subframes=5, fits=lambda sf: True)
    assert taken == [to2a, to2b]
    # The non-matching subframe stays, and is now the head.
    assert queues.total_count == 1
    assert queues.head_unicast_destination() == MacAddress.node(3)
    assert queues.take_unicast_for(MacAddress.node(3), max_subframes=5,
                                   fits=lambda sf: True) == [to3]
    assert queues.empty


def test_take_unicast_respects_max_and_fits():
    queues = TransmitQueues()
    subframes = [make_subframe(2) for _ in range(4)]
    for sf in subframes:
        queues.enqueue_unicast(sf)
    taken = queues.take_unicast_for(MacAddress.node(2), max_subframes=2, fits=lambda sf: True)
    assert taken == subframes[:2]
    assert queues.total_count == 2
    # fits() can veto subframes.
    taken = queues.take_unicast_for(MacAddress.node(2), max_subframes=5, fits=lambda sf: False)
    assert taken == []
    assert queues.total_count == 2
    assert queues.take_unicast_for(MacAddress.node(2), max_subframes=5,
                                   fits=lambda sf: True) == subframes[2:]


def test_take_unicast_keeps_the_rest_in_order_past_the_limit():
    queues = TransmitQueues()
    to2a, to3a, to2b, to3b, to2c = (make_subframe(index) for index in (2, 3, 2, 3, 2))
    for sf in (to2a, to3a, to2b, to3b, to2c):
        queues.enqueue_unicast(sf)
    assert queues.take_unicast_for(MacAddress.node(2), max_subframes=2,
                                   fits=lambda sf: True) == [to2a, to2b]
    # Untested subframes after the limit keep their places behind the
    # skipped ones: node 3's pair first, then node 2's third.
    assert queues.head_unicast_destination() == MacAddress.node(3)
    assert queues.take_unicast_for(MacAddress.node(3), max_subframes=5,
                                   fits=lambda sf: True) == [to3a, to3b]
    assert queues.take_unicast_for(MacAddress.node(2), max_subframes=5,
                                   fits=lambda sf: True) == [to2c]
    assert queues.empty


def test_pop_broadcast_head_fifo():
    queues = TransmitQueues()
    a, b = make_subframe(dst_index=None), make_subframe(dst_index=None)
    queues.enqueue_broadcast(a)
    queues.enqueue_broadcast(b)
    assert queues.pop_broadcast_head() is a
    assert queues.pop_broadcast_head() is b
    assert queues.pop_broadcast_head() is None


def test_broadcast_head_reads_without_removing():
    queues = TransmitQueues()
    assert queues.broadcast_head() is None
    a, b = make_subframe(dst_index=None), make_subframe(dst_index=None)
    queues.enqueue_broadcast(a)
    queues.enqueue_broadcast(b)
    assert queues.broadcast_head() is a
    assert queues.broadcast_head() is a
    assert queues.broadcast_count == 2
    queues.pop_broadcast_head()
    assert queues.broadcast_head() is b


# ---------------------------------------------------------------------------
# MAC timing
# ---------------------------------------------------------------------------

def test_difs_is_sifs_plus_two_slots():
    assert DIFS == SIFS + 2.0 * SLOT_TIME
    assert DIFS == pytest.approx(180e-6)


def test_response_timeout_includes_guard():
    assert CTS_TIMEOUT == SIFS + CTS_AIRTIME + TIMEOUT_GUARD
    assert ACK_TIMEOUT == SIFS + ACK_AIRTIME + TIMEOUT_GUARD


# ---------------------------------------------------------------------------
# The MAC's queue choice (Section 4.2.4)
# ---------------------------------------------------------------------------

POLICIES = {"NA": no_aggregation, "UA": unicast_aggregation, "BA": broadcast_aggregation}


def lone_mac(sim, policy=None, channel=None):
    """A MAC whose PHY sits at the origin of ``channel`` with no peer MAC."""
    channel = channel or WirelessChannel(sim)
    phy = Phy(sim, channel, position=(0.0, 0.0), name="phy1")
    return AggregatingMac(sim, phy, MacAddress.node(1), rate_for_mbps(1.3),
                          policy=policy or broadcast_aggregation(), name="mac1")


def records(sim, source, event):
    """Times of every ``event`` record ``source`` emits from now on."""
    times = []
    sim.tracer.add_listener(
        lambda record: times.append(record.time)
        if record.source == source and record.event == event else None)
    return times


def tcp(payload=0, ack=True, syn=False, fin=False, rst=False):
    header = TcpHeader(src_port=1, dst_port=2, flags_ack=ack, flags_syn=syn,
                       flags_fin=fin, flags_rst=rst)
    return Packet.tcp_segment(IpAddress("10.0.0.1"), IpAddress("10.0.0.2"), header,
                              payload_bytes=payload)


def flood():
    return Packet.broadcast_control(IpAddress("10.0.0.1"), payload_bytes=64)


def queued_in_broadcast_queue(policy, packet, next_hop):
    """Whether the MAC queues ``packet`` for ``next_hop`` in its broadcast queue."""
    mac = lone_mac(Simulator(seed=1), policy)
    assert mac.enqueue(packet, next_hop)
    assert mac.queues.total_count == 1
    return mac.queues.broadcast_count == 1


@pytest.mark.parametrize("policy", POLICIES)
def test_a_pure_tcp_ack_takes_the_broadcast_queue_only_under_ba(policy):
    in_broadcast = queued_in_broadcast_queue(POLICIES[policy](), tcp(), MacAddress.node(2))
    assert in_broadcast is (policy == "BA")


#: Everything but a pure TCP ACK, built when a test asks.
NOT_PURE_ACKS = {
    "data": lambda: tcp(payload=1357),
    "syn": lambda: tcp(syn=True, ack=False),
    "syn-ack": lambda: tcp(syn=True),
    "fin": lambda: tcp(fin=True),
    "rst": lambda: tcp(rst=True),
    "udp": lambda: Packet.udp_datagram(IpAddress("10.0.0.1"), IpAddress("10.0.0.2"),
                                       9000, 9000, payload_bytes=100),
}


@pytest.mark.parametrize("kind", NOT_PURE_ACKS)
def test_everything_but_a_pure_tcp_ack_stays_unicast_under_ba(kind):
    packet = NOT_PURE_ACKS[kind]()
    assert not queued_in_broadcast_queue(broadcast_aggregation(), packet, MacAddress.node(2))


@pytest.mark.parametrize("kind", ["flood", "pure-ack", "data"])
@pytest.mark.parametrize("policy", POLICIES)
def test_a_link_broadcast_takes_the_broadcast_queue_under_every_policy(policy, kind):
    packet = {"flood": flood, "pure-ack": tcp, "data": NOT_PURE_ACKS["data"]}[kind]()
    assert queued_in_broadcast_queue(POLICIES[policy](), packet, BROADCAST_MAC)


# ---------------------------------------------------------------------------
# The MAC's backoff
# ---------------------------------------------------------------------------

SEED = 7


def twin_stream(seed=SEED, name="mac1"):
    """A generator drawing what the MAC ``name`` of a ``seed`` run draws."""
    return Simulator(seed=seed).random.stream(f"mac.{name}")


def unanswered_rts_run(until):
    """A lone MAC sending one packet to a peer that never answers: the
    times of its RTSs and of its failed exchanges."""
    sim = Simulator(seed=SEED)
    mac = lone_mac(sim, unicast_aggregation())
    rts_at = records(sim, "mac1", "rts")
    failed_at = records(sim, "mac1", "exchange_failed")
    mac.enqueue(tcp(payload=1357), MacAddress.node(2))
    sim.run(until=until)
    return sim, mac, rts_at, failed_at


def test_each_rts_waits_difs_and_a_draw_from_the_doubling_window():
    """The first wait runs from the enqueue, each retry's from the CTS
    timeout; each is DIFS plus k slots, k = randrange(w) on the MAC's stream."""
    _, mac, rts_at, failed_at = unanswered_rts_run(until=1.0)
    assert len(rts_at) == len(failed_at) == RETRY_LIMIT + 1
    assert mac.stats.unicast_drops == 1
    windows = [min(CW_MIN << attempt, CW_MAX) for attempt in range(RETRY_LIMIT + 1)]
    assert windows == [16, 32, 64, 128, 256, 512, 1024, 1024]
    twin = twin_stream()
    waits = [rts - start for rts, start in zip(rts_at, [0.0] + failed_at)]
    assert waits == [pytest.approx(DIFS + twin.randrange(window) * SLOT_TIME)
                     for window in windows]


def test_the_window_returns_to_cw_min_once_the_retry_limit_drops_the_packet():
    sim, mac, rts_at, _ = unanswered_rts_run(until=1.0)
    twin = twin_stream()
    for attempt in range(RETRY_LIMIT + 1):
        twin.randrange(min(CW_MIN << attempt, CW_MAX))
    queued_at = sim.now
    mac.enqueue(tcp(payload=1357), MacAddress.node(2))
    sim.run(until=queued_at + 0.01)
    first_rts = rts_at[RETRY_LIMIT + 1]
    assert first_rts - queued_at == pytest.approx(DIFS + twin.randrange(CW_MIN) * SLOT_TIME)


def overheard_rts(duration):
    """An RTS between two other nodes, reserving ``duration`` after it."""
    rts = RtsFrame(src=MacAddress.node(8), dst=MacAddress.node(9), duration=duration)
    return PhyFrame.control_frame(FrameKind.RTS, rts, HYDRA_BASE_RATE)


def overheard_data(duration):
    """A data frame to another node whose first unicast subframe carries
    ``duration`` in its Duration field."""
    subframe = subframe_for_packet(tcp(payload=500), MacAddress.node(8), MacAddress.node(9))
    subframe.duration = duration
    return PhyFrame.data((), (subframe,), rate_for_mbps(1.3))


def overhearing(seed=SEED):
    """A lone MAC and, 2.5 m away, a PHY with no MAC whose frames it overhears.

    Returns the simulator, the MAC, the PHY, and the times at which the
    MAC's PHY finishes receiving a frame, sends an RTS and sends a data frame.
    """
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim)
    mac = lone_mac(sim, channel=channel)
    sender = Phy(sim, channel, position=(2.5, 0.0), name="sender")
    return (sim, mac, sender, records(sim, "phy1", "rx_end"), records(sim, "mac1", "rts"),
            records(sim, "mac1", "data_tx"))


def test_a_backoff_an_overheard_frame_interrupts_resumes_with_its_remaining_slots():
    sim, mac, sender, heard_at, rts_at, _ = overhearing()
    drawn = twin_stream().randrange(CW_MIN)
    assert drawn > 2
    # The overheard frame starts two and a half idle slots into the
    # backoff and reserves nothing: two slots are spent, the rest wait.
    sim.schedule(DIFS + 2.5 * SLOT_TIME, sender.send, overheard_rts(0.0))
    mac.enqueue(tcp(payload=1357), MacAddress.node(2))
    sim.run(until=0.1)
    assert rts_at[0] == pytest.approx(heard_at[0] + DIFS + (drawn - 2) * SLOT_TIME)


# ---------------------------------------------------------------------------
# The MAC's NAV (Section 4.2.1)
# ---------------------------------------------------------------------------

RESERVATION = 5e-3


@pytest.mark.parametrize("overheard", [overheard_rts, overheard_data], ids=["rts", "data"])
def test_an_overheard_reservation_holds_a_queued_frame_until_it_ends(overheard):
    sim, mac, sender, heard_at, _, sent_at = overhearing()
    sender.send(overheard(RESERVATION))
    mac.enqueue(flood(), BROADCAST_MAC)
    sim.run(until=0.1)
    drawn = twin_stream().randrange(CW_MIN)
    assert len(heard_at) == len(sent_at) == 1
    assert sent_at[0] == pytest.approx(heard_at[0] + RESERVATION + DIFS + drawn * SLOT_TIME)


def test_a_zero_duration_reserves_nothing():
    sim, mac, sender, heard_at, _, sent_at = overhearing()
    sender.send(overheard_rts(0.0))
    mac.enqueue(flood(), BROADCAST_MAC)
    sim.run(until=0.1)
    drawn = twin_stream().randrange(CW_MIN)
    assert sent_at == [pytest.approx(heard_at[0] + DIFS + drawn * SLOT_TIME)]


def test_a_shorter_later_reservation_does_not_shrink_the_nav():
    sim, mac, sender, heard_at, _, sent_at = overhearing()
    first = overheard_rts(RESERVATION)
    sender.send(first)
    # A second RTS right after the first, reserving until well before the
    # first reservation ends.
    sim.schedule(first.airtime() + SIFS, sender.send, overheard_rts(RESERVATION / 5))
    mac.enqueue(flood(), BROADCAST_MAC)
    sim.run(until=0.1)
    drawn = twin_stream().randrange(CW_MIN)
    assert len(heard_at) == 2
    assert heard_at[1] + RESERVATION / 5 < heard_at[0] + RESERVATION
    assert sent_at == [pytest.approx(heard_at[0] + RESERVATION + DIFS + drawn * SLOT_TIME)]


def test_a_reservation_heard_after_the_last_one_ended_rearms_the_nav():
    sim, mac, sender, heard_at, _, sent_at = overhearing()
    sender.send(overheard_rts(RESERVATION))
    sim.run(until=0.05)
    # The first reservation has ended; a second one arrives together with a
    # frame to send.  Only the NAV's own expiry can release that frame: the
    # medium went idle while the reservation still held.
    sender.send(overheard_rts(RESERVATION))
    mac.enqueue(flood(), BROADCAST_MAC)
    sim.run(until=0.1)
    drawn = twin_stream().randrange(CW_MIN)
    assert len(heard_at) == 2 and heard_at[0] + RESERVATION < 0.05
    assert sent_at == [pytest.approx(heard_at[1] + RESERVATION + DIFS + drawn * SLOT_TIME)]
