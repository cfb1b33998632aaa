"""Integration tests for the PHY device and the shared wireless channel."""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import List

import pytest

from helpers.mobility import Fixed

from repro.channel import WirelessChannel, medium
from repro.channel.propagation import IndoorPropagation
from repro.errors import ConfigurationError, PhyError
from repro.phy import FrameKind, Phy, PhyFrame, PhyState, ReceptionResult
from repro.phy.device import NOISE_FLOOR_DBM
from repro.phy.rates import rate_for_mbps
from repro.sim import Event, Simulator

RATE_065 = rate_for_mbps(0.65)
RATE_26 = rate_for_mbps(2.6)

#: The channel's two candidate enumerations: the exhaustive scan (the
#: default threshold is far above these few PHYs) and the grid index (forced
#: by patching the threshold to 0).
SIDES = {"scan": medium.AUTO_SPATIAL_THRESHOLD, "grid": 0}


def on_both_sides(monkeypatch):
    """Yield each side's name with the channel patched onto that side."""
    for side, threshold in SIDES.items():
        monkeypatch.setattr(medium, "AUTO_SPATIAL_THRESHOLD", threshold)
        yield side


def assert_on_side(channel, side):
    """The grid index exists exactly when a grid-side send happened."""
    assert (channel._spatial is not None) == (side == "grid"), side


@dataclass
class StubSubframe:
    size_bytes: int


@dataclass
class RecordingListener:
    """Collects PHY callbacks for assertions."""

    received: List[ReceptionResult] = field(default_factory=list)
    tx_complete: List[PhyFrame] = field(default_factory=list)
    busy_transitions: List[str] = field(default_factory=list)

    def on_carrier_busy(self):
        self.busy_transitions.append("busy")

    def on_carrier_idle(self):
        self.busy_transitions.append("idle")

    def on_frame_received(self, result):
        self.received.append(result)

    def on_transmit_complete(self, frame):
        self.tx_complete.append(frame)


def carrier_reported_busy(listener) -> bool:
    """Whether the PHY last told ``listener`` (its MAC) the medium is busy."""
    return listener.busy_transitions[-1:] == ["busy"]


def build_pair(sim, spacing=2.5):
    channel = WirelessChannel(sim)
    tx = Phy(sim, channel, position=(0.0, 0.0), name="tx")
    rx = Phy(sim, channel, position=(spacing, 0.0), name="rx")
    tx_listener, rx_listener = RecordingListener(), RecordingListener()
    tx.attach_listener(tx_listener)
    rx.attach_listener(rx_listener)
    return channel, tx, rx, tx_listener, rx_listener


def data_frame(n_unicast=1, size=1464, rate=RATE_065, n_broadcast=0, bcast_size=160,
               bcast_rate=None):
    return PhyFrame.data(
        [StubSubframe(bcast_size) for _ in range(n_broadcast)],
        [StubSubframe(size) for _ in range(n_unicast)],
        unicast_rate=rate,
        broadcast_rate=bcast_rate,
    )


def test_link_snr_matches_paper_operating_point():
    sim = Simulator(seed=1)
    channel, tx, rx, *_ = build_pair(sim, spacing=2.5)
    snr_db = channel.received_power_dbm(tx, rx) - NOISE_FLOOR_DBM
    assert snr_db == pytest.approx(25.0, abs=1.0)


def test_successful_unicast_delivery():
    sim = Simulator(seed=2)
    channel, tx, rx, tx_l, rx_l = build_pair(sim)
    frame = data_frame()
    duration = tx.send(frame)
    assert duration > 0
    assert tx.state is PhyState.TRANSMITTING
    sim.run()
    assert tx_l.tx_complete == [frame]
    assert len(rx_l.received) == 1
    result = rx_l.received[0]
    assert result.all_unicast_ok
    assert not result.collided
    assert result.snr_db == pytest.approx(25.0, abs=1.5)


def test_broadcast_and_unicast_portions_both_decoded():
    sim = Simulator(seed=3)
    _, tx, rx, _, rx_l = build_pair(sim)
    frame = data_frame(n_unicast=2, n_broadcast=3, bcast_rate=RATE_065, rate=RATE_26)
    tx.send(frame)
    sim.run()
    result = rx_l.received[0]
    assert result.broadcast_ok == [True, True, True]
    assert result.unicast_ok == [True, True]


def test_cannot_send_while_transmitting():
    sim = Simulator(seed=4)
    _, tx, _, _, _ = build_pair(sim)
    tx.send(data_frame())
    with pytest.raises(PhyError):
        tx.send(data_frame())


def test_carrier_sense_transitions_at_receiver():
    sim = Simulator(seed=5)
    _, tx, rx, _, rx_l = build_pair(sim)
    tx.send(data_frame())
    sim.run()
    assert rx_l.busy_transitions == ["busy", "idle"]
    assert not carrier_reported_busy(rx_l)


def test_overlapping_transmissions_collide():
    sim = Simulator(seed=6)
    channel = WirelessChannel(sim)
    a = Phy(sim, channel, position=(0.0, 0.0), name="a")
    b = Phy(sim, channel, position=(5.0, 0.0), name="b")
    victim = Phy(sim, channel, position=(2.5, 0.0), name="victim")
    listener = RecordingListener()
    victim.attach_listener(listener)
    # Both neighbours transmit at the same instant: equal power at the victim.
    sim.schedule(0.0, a.send, data_frame())
    sim.schedule(0.0, b.send, data_frame())
    sim.run()
    assert len(listener.received) == 2
    assert all(r.collided for r in listener.received)
    assert all(not r.all_unicast_ok for r in listener.received)
    assert victim.frames_collided == 2


def test_reception_lost_if_receiver_is_transmitting():
    sim = Simulator(seed=7)
    channel, tx, rx, _, rx_l = build_pair(sim)
    # rx starts its own (long) transmission just before tx's frame arrives.
    sim.schedule(0.0, rx.send, data_frame(size=4000))
    sim.schedule(0.001, tx.send, data_frame())
    sim.run()
    assert all(r.collided for r in rx_l.received)


def test_control_frame_reception():
    sim = Simulator(seed=8)
    _, tx, rx, _, rx_l = build_pair(sim)
    ack = PhyFrame.control_frame(FrameKind.ACK, StubSubframe(14), RATE_065)
    tx.send(ack)
    sim.run()
    assert len(rx_l.received) == 1
    assert rx_l.received[0].control_ok
    assert rx_l.received[0].frame.kind is FrameKind.ACK


def test_distant_node_does_not_decode_but_cs_threshold_applies():
    sim = Simulator(seed=9)
    channel = WirelessChannel(sim)
    tx = Phy(sim, channel, position=(0.0, 0.0), name="tx")
    # Far node: below reception threshold but possibly above carrier sense.
    far = Phy(sim, channel, position=(400.0, 0.0), name="far")
    far_listener = RecordingListener()
    far.attach_listener(far_listener)
    tx.send(data_frame())
    sim.run()
    # Nothing decodable should have been delivered as OK.
    assert all(not r.any_ok for r in far_listener.received) or far_listener.received == []


def test_channel_statistics_and_registration():
    sim = Simulator(seed=10)
    channel, tx, rx, *_ = build_pair(sim)
    assert len(channel.phys) == 2
    tx.send(data_frame())
    sim.run()
    assert channel.total_transmissions == 1
    assert channel.total_airtime > 0
    channel.unregister(rx)
    assert len(channel.phys) == 1


def test_unregistered_phy_cannot_transmit():
    sim = Simulator(seed=11)
    channel = WirelessChannel(sim)
    other_channel = WirelessChannel(sim)
    phy = Phy(sim, other_channel, name="elsewhere")
    with pytest.raises(ConfigurationError):
        channel.broadcast(phy, data_frame(), 0.01)
    # A PHY has one identity, on its own channel: no other channel takes it.
    with pytest.raises(ConfigurationError):
        channel.register(phy)
    assert channel.phys == []


def test_refused_send_leaves_the_phy_idle():
    """A send the channel refuses must not wedge the PHY.

    Regression: send() marked the PHY transmitting and counted the frame
    before the channel refused an unregistered sender, so the PHY stayed
    TRANSMITTING forever and every later send() raised PhyError.
    """
    sim = Simulator(seed=25)
    channel, tx, rx, tx_l, rx_l = build_pair(sim)
    channel.unregister(tx)
    with pytest.raises(ConfigurationError):
        tx.send(data_frame())
    assert tx.state is PhyState.IDLE
    assert not carrier_reported_busy(tx_l)
    assert (tx.frames_sent, tx.tx_airtime) == (0, 0.0)
    assert sim.pending_events == 0
    channel.register(tx)
    frame = data_frame()
    tx.send(frame)
    sim.run()
    assert tx_l.tx_complete == [frame]
    assert tx.frames_sent == 1
    assert len(rx_l.received) == 1
    assert rx_l.received[0].all_unicast_ok


def test_unregister_mid_flight_stops_delivery(monkeypatch):
    """A PHY detached while a frame is in flight must never hear its tail.

    Regression: unregister() used to leave the already-scheduled begin/end
    reception events pending, so the detached PHY finished decoding frames on
    a medium it was no longer attached to.
    """
    for side in on_both_sides(monkeypatch):
        sim = Simulator(seed=20)
        channel, tx, rx, _, rx_l = build_pair(sim)
        duration = tx.send(data_frame())
        assert_on_side(channel, side)
        # Past the propagation delay: begin_reception has fired, end is pending.
        sim.run(until=duration / 2)
        assert rx.state is PhyState.RECEIVING
        pending = sim.pending_events
        channel.unregister(rx)
        # Exactly the one outstanding end_reception is cancelled.
        assert sim.pending_events == pending - 1
        assert rx.state is PhyState.IDLE
        assert not carrier_reported_busy(rx_l)
        sim.run()
        assert rx_l.received == []
        assert rx.frames_received == 0
        assert channel.total_transmissions == 1


def test_unregister_before_arrival_cancels_both_delivery_events(monkeypatch):
    for side in on_both_sides(monkeypatch):
        sim = Simulator(seed=21)
        channel, tx, rx, _, rx_l = build_pair(sim)
        tx.send(data_frame())
        # The leaver is transmitting too: its own transmission must finish.
        own_frame = data_frame(size=200)
        rx.send(own_frame)
        assert_on_side(channel, side)
        # Not run yet: even begin_reception is still pending.
        pending = sim.pending_events
        channel.unregister(rx)
        # Both of rx's deliveries go; its _finish_transmission and the
        # deliveries of its frame to tx stay queued.
        assert sim.pending_events == pending - 2
        sim.run()
        assert rx_l.received == []
        assert rx.frames_received == 0
        assert rx_l.tx_complete == [own_frame]
        assert rx.state is PhyState.IDLE


def test_unregister_leaves_other_receivers_untouched(monkeypatch):
    for side in on_both_sides(monkeypatch):
        sim = Simulator(seed=22)
        channel = WirelessChannel(sim)
        tx = Phy(sim, channel, position=(0.0, 0.0), name="tx")
        leaver = Phy(sim, channel, position=(2.5, 0.0), name="leaver")
        stayer = Phy(sim, channel, position=(0.0, 2.5), name="stayer")
        stayer_l = RecordingListener()
        stayer.attach_listener(stayer_l)
        duration = tx.send(data_frame())
        assert_on_side(channel, side)
        sim.run(until=duration / 2)
        pending = sim.pending_events
        channel.unregister(leaver)
        assert sim.pending_events == pending - 1
        sim.run()
        assert len(stayer_l.received) == 1
        assert stayer_l.received[0].all_unicast_ok
        assert leaver.frames_received == 0


@pytest.mark.parametrize("threshold", SIDES.values(), ids=SIDES.keys())
def test_delivered_frames_are_not_retained(monkeypatch, threshold):
    """Once a delivery fires, nothing keeps its event (or frame) alive.

    Regression: the channel kept every delivery's handle in a per-receiver
    list, pruned only past 256 entries, so on receivers with fewer
    receptions every delivered frame stayed reachable until the run ended.
    """
    monkeypatch.setattr(medium, "AUTO_SPATIAL_THRESHOLD", threshold)
    sim = Simulator(seed=24)
    channel = WirelessChannel(sim)
    phys = [Phy(sim, channel, position=(1.0 * i, 0.0), name=f"p{i}")
            for i in range(5)]
    frames_each = 6
    for round_ in range(frames_each):
        for i, phy in enumerate(phys):
            sim.schedule_at(0.05 * (round_ * len(phys) + i), phy.send, data_frame(size=100))
    phy_ids = {id(phy) for phy in phys}

    def live_phy_events():
        gc.collect()
        return [obj for obj in gc.get_objects() if isinstance(obj, Event)
                and id(getattr(obj.callback, "__self__", None)) in phy_ids]

    sim.run(until=0.01)
    # Mid-run the detector sees the queued events, and every PHY-bound event
    # still alive is one the scheduler queues.
    queued = {id(entry[3]) for entry in sim._scheduler._heap}
    alive = live_phy_events()
    assert alive
    assert all(id(event) in queued for event in alive)
    del alive
    sim.run()
    # Every receiver heard every other PHY's frames: far below 128 receptions.
    assert channel.total_culled == 0
    assert channel.total_deliveries == len(phys) * (len(phys) - 1) * frames_each
    assert (len(phys) - 1) * frames_each < 128
    assert_on_side(channel, "grid" if threshold == 0 else "scan")
    assert live_phy_events() == []


def test_cached_plans_are_dropped_by_every_event_that_can_change_them():
    """A plan is served again only until something could change it.

    Each step below is one such event: a reassigned position, a PHY
    registering or leaving, and a PHY that carries a mobility model
    registering (no plan is cached while it stays) and leaving.  After each
    one the next send must build its plan afresh, and that plan must equal
    one built from scratch.
    """
    sim = Simulator(seed=23)
    channel = WirelessChannel(sim, shadowing_sigma_db=4.0)
    a = Phy(sim, channel, position=(0.0, 0.0), name="a")
    b = Phy(sim, channel, position=(2.5, 0.0), name="b")

    def send():
        channel.broadcast(a, data_frame(), 1e-3)
        return channel._plans.get(a.channel_index)

    def fresh():
        return channel._plan(a, sim.now)

    def powers(plan):
        return [(receiver.name, power) for receiver, power, _ in plan[2]]

    first = send()
    assert first == fresh()
    assert send() is first

    sim.run(until=0.6)  # time alone changes nothing: shadowing is static
    assert send() is first

    b.position = (5.0, 0.0)
    assert channel._plans == {}
    moved = send()
    assert moved == fresh() and powers(moved)[0][1] < powers(first)[0][1]

    c = Phy(sim, channel, position=(0.0, 2.5), name="c")
    assert channel._plans == {}
    joined = send()
    assert joined == fresh() and [name for name, _ in powers(joined)] == ["b", "c"]

    channel.unregister(c)
    assert channel._plans == {}
    assert powers(send()) == powers(moved)

    d = Phy(sim, channel, position=(0.0, 2.5), name="d", mobility=Fixed())
    assert channel._plans == {}
    assert send() is None  # per-broadcast plans while d is registered
    assert send() is None

    channel.unregister(d)
    cached = send()
    assert cached == fresh() and powers(cached) == powers(moved)
    assert send() is cached
    assert channel.total_transmissions == 10


@pytest.mark.parametrize("duration", (math.nan, math.inf), ids=("nan", "inf"))
def test_broadcast_refuses_a_duration_that_is_not_finite(duration):
    """Regression: only ``duration <= 0`` was refused, so a NaN airtime ran
    the clock to NaN and an infinite one held every carrier busy forever."""
    sim = Simulator(seed=24)
    channel, tx, rx, _, rx_l = build_pair(sim, spacing=3.0)
    ack = PhyFrame.control_frame(FrameKind.ACK, StubSubframe(14), RATE_065)
    with pytest.raises(ConfigurationError):
        channel.broadcast(tx, ack, duration)
    assert channel.total_transmissions == 0
    assert channel.total_airtime == 0.0
    assert sim.pending_events == 0
    assert sim.run(until=1.0) == 1.0
    assert rx_l.busy_transitions == []


def test_propagation_models_monotone_in_distance():
    model = IndoorPropagation(Simulator(seed=1).random)
    near = model.path_loss_db((0, 0), (1, 0))
    far = model.path_loss_db((0, 0), (10, 0))
    assert far > near


def test_aging_kills_tail_subframes_of_oversized_aggregates():
    """An aggregate far beyond the 120 Ksample ceiling loses its tail subframes."""
    sim = Simulator(seed=12)
    _, tx, rx, _, rx_l = build_pair(sim)
    # 8 KB of unicast at 0.65 Mbps is ~190 Ksamples: the last subframes must fail.
    frame = data_frame(n_unicast=6, size=1464, rate=RATE_065)
    tx.send(frame)
    sim.run()
    result = rx_l.received[0]
    assert result.unicast_ok[0] is True
    assert result.unicast_ok[-1] is False
    assert not result.all_unicast_ok
