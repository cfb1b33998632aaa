"""Unit tests for the MAC transmit queues, backoff controller and NAV."""

from __future__ import annotations

import random

import pytest

from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.backoff import BackoffController
from repro.mac.dcf import ACK_AIRTIME, ACK_TIMEOUT, CTS_AIRTIME, CTS_TIMEOUT
from repro.mac.frames import subframe_for_packet
from repro.mac.nav import NetworkAllocationVector
from repro.mac.queues import TransmitQueues
from repro.mac.timing import CW_MAX, CW_MIN, DIFS, SIFS, SLOT_TIME, TIMEOUT_GUARD
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader


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
    assert queues.drops_unicast == 1
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
# BackoffController
# ---------------------------------------------------------------------------

def test_backoff_draw_within_window():
    backoff = BackoffController(random.Random(1))
    for _ in range(100):
        slots = backoff.draw()
        assert 0 <= slots < CW_MIN


def test_backoff_doubles_and_caps():
    # Each draw is randrange(window) on the MAC's stream, so a twin stream
    # drawing from the expected window must match it draw for draw.
    backoff = BackoffController(random.Random(1))
    twin = random.Random(1)
    assert (CW_MIN, CW_MAX) == (16, 1024)
    windows = [16, 32, 64, 128, 256, 512, 1024, 1024, 1024]
    for index, window in enumerate(windows):
        if index:
            backoff.on_failure()
        assert [backoff.draw() for _ in range(20)] == [twin.randrange(window)
                                                       for _ in range(20)]
    backoff.on_success()
    assert [backoff.draw() for _ in range(20)] == [twin.randrange(16) for _ in range(20)]


def test_backoff_consume_and_expired():
    backoff = BackoffController(random.Random(3))
    backoff.slots_remaining = 5
    backoff.consume(3)
    assert backoff.slots_remaining == 2
    backoff.consume(10)  # the count stops at zero, where the backoff has expired
    assert backoff.slots_remaining == 0


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
# NetworkAllocationVector
# ---------------------------------------------------------------------------

def test_nav_reserves_medium(sim):
    nav = NetworkAllocationVector(sim, on_expire=lambda: None)
    assert nav.until == 0.0
    nav.update(0.5)
    assert nav.until == pytest.approx(0.5)
    nav.update(0.0)  # a zero Duration field reserves nothing
    assert nav.until == pytest.approx(0.5)


def test_nav_extends_only_forward(sim):
    fired = []
    nav = NetworkAllocationVector(sim, on_expire=lambda: fired.append(sim.now))
    nav.update(0.5)
    nav.update(0.2)  # shorter reservation must not shrink the NAV
    assert nav.until == pytest.approx(0.5)
    nav.update(1.0)
    assert nav.until == pytest.approx(1.0)
    sim.run()
    # Only the latest reservation's end is reported.
    assert fired == [pytest.approx(1.0)]


def test_nav_expiry_callback(sim):
    fired = []
    nav = NetworkAllocationVector(sim, on_expire=lambda: fired.append(sim.now))
    nav.update(0.25)
    sim.run()
    assert fired == [pytest.approx(0.25)]
    assert sim.now >= nav.until


def test_nav_rearms_after_expiry(sim):
    fired = []
    nav = NetworkAllocationVector(sim, on_expire=lambda: fired.append(sim.now))
    nav.update(0.25)
    sim.run()
    nav.update(0.5)  # a reservation overheard after the last one ended
    assert nav.until == pytest.approx(0.75)
    sim.run()
    assert fired == [pytest.approx(0.25), pytest.approx(0.75)]
