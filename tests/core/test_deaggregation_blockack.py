"""Unit tests for receive-side deaggregation and the block-ACK extension."""

from __future__ import annotations

import pytest

from repro.core.block_ack import BlockAck, BlockAckScoreboard
from repro.core.deaggregation import (
    DUPLICATE_CACHE_SIZE,
    DuplicateDetector,
    process_received_aggregate,
)
from repro.core.policies import unicast_aggregation
from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.frames import subframe_for_packet
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader
from repro.obs.session import observe
from repro.phy.frame import PhyFrame, ReceptionResult
from repro.phy.rates import HYDRA_BASE_RATE
from repro.sim import Simulator
from repro.topology import MobileScenario

from helpers.obs import audit_balanced, journey_event_fields

ME = MacAddress.node(2)
SENDER = MacAddress.node(1)


def subframe(dst, payload=1357, broadcast_portion=False, sequence=0):
    header = TcpHeader(src_port=1, dst_port=2, flags_ack=True)
    packet = Packet.tcp_segment(IpAddress("10.0.0.1"), IpAddress("10.0.0.9"), header,
                                payload_bytes=payload)
    return subframe_for_packet(packet, SENDER, dst, broadcast_portion=broadcast_portion,
                               sequence=sequence)


def reception(broadcast=(), unicast=(), broadcast_ok=None, unicast_ok=None):
    frame = PhyFrame.data(list(broadcast), list(unicast), unicast_rate=HYDRA_BASE_RATE)
    return ReceptionResult(
        frame=frame, snr_db=25.0,
        broadcast_ok=list(broadcast_ok if broadcast_ok is not None else [True] * len(broadcast)),
        unicast_ok=list(unicast_ok if unicast_ok is not None else [True] * len(unicast)),
    )


# ---------------------------------------------------------------------------
# Broadcast portion rules (Sections 3.3 / 4.2.2)
# ---------------------------------------------------------------------------

def test_broadcast_subframes_delivered_individually():
    result = reception(broadcast=[subframe(BROADCAST_MAC, 64), subframe(BROADCAST_MAC, 64)],
                       broadcast_ok=[True, False])
    outcome = process_received_aggregate(result, ME)
    assert len(outcome.broadcast_deliveries) == 1
    assert not outcome.send_ack


def test_overheard_classified_ack_is_dropped_at_mac():
    """A TCP ACK in the broadcast portion addressed to another node must not go up."""
    other = MacAddress.node(7)
    result = reception(broadcast=[subframe(other, 0, broadcast_portion=True)])
    outcome = process_received_aggregate(result, ME)
    assert outcome.broadcast_deliveries == []
    assert outcome.overheard_dropped == 1


def test_classified_ack_addressed_to_me_is_delivered():
    result = reception(broadcast=[subframe(ME, 0, broadcast_portion=True)])
    outcome = process_received_aggregate(result, ME)
    assert len(outcome.broadcast_deliveries) == 1


# ---------------------------------------------------------------------------
# Unicast portion rules
# ---------------------------------------------------------------------------

def test_unicast_all_ok_generates_single_ack():
    result = reception(unicast=[subframe(ME), subframe(ME)])
    outcome = process_received_aggregate(result, ME)
    assert len(outcome.unicast_deliveries) == 2
    assert outcome.send_ack
    assert outcome.ack_destination == SENDER


def test_unicast_any_crc_failure_discards_everything_and_suppresses_ack():
    result = reception(unicast=[subframe(ME), subframe(ME)], unicast_ok=[True, False])
    outcome = process_received_aggregate(result, ME)
    assert outcome.unicast_deliveries == []
    assert not outcome.send_ack
    assert outcome.unicast_crc_passed and outcome.unicast_crc_failed


def test_unicast_for_other_destination_sets_nav_only():
    other = MacAddress.node(9)
    sf = subframe(other)
    sf.duration = 0.004
    result = reception(unicast=[sf])
    outcome = process_received_aggregate(result, ME)
    assert outcome.unicast_deliveries == []
    assert not outcome.send_ack
    assert outcome.nav_duration == pytest.approx(0.004)


def test_mixed_frame_broadcast_still_delivered_when_unicast_fails():
    """Broadcast subframes 'do not suffer' from being aggregated with unicast ones."""
    result = reception(broadcast=[subframe(BROADCAST_MAC, 64)],
                       unicast=[subframe(ME)], unicast_ok=[False])
    outcome = process_received_aggregate(result, ME)
    assert len(outcome.broadcast_deliveries) == 1
    assert outcome.unicast_deliveries == []


def test_duplicate_detection_filters_retransmissions():
    detector = DuplicateDetector()
    sf = subframe(ME)
    first = process_received_aggregate(reception(unicast=[sf]), ME, duplicates=detector)
    second = process_received_aggregate(reception(unicast=[sf]), ME, duplicates=detector)
    assert len(first.unicast_deliveries) == 1
    assert second.unicast_deliveries == []
    assert second.send_ack  # the ACK is still sent so the sender stops retrying
    assert second.duplicates_filtered == 1


def test_duplicate_detector_cache_eviction():
    detector = DuplicateDetector()
    newest = DUPLICATE_CACHE_SIZE + 1
    for sequence in range(1, newest + 1):
        assert not detector.is_duplicate(SENDER, sequence)
    # Sequence 1 was evicted, so it is no longer considered a duplicate.
    assert not detector.is_duplicate(SENDER, 1)
    assert detector.is_duplicate(SENDER, newest)


# ---------------------------------------------------------------------------
# Block-ACK extension
# ---------------------------------------------------------------------------

def test_block_ack_mode_accepts_partial_unicast():
    good, bad = subframe(ME, sequence=1), subframe(ME, sequence=2)
    result = reception(unicast=[good, bad], unicast_ok=[True, False])
    outcome = process_received_aggregate(result, ME, block_ack_enabled=True)
    assert len(outcome.unicast_deliveries) == 1
    assert outcome.send_ack
    assert outcome.unicast_crc_passed == [good.sequence]
    assert outcome.unicast_crc_failed == [bad.sequence]


def test_block_ack_scoreboard_tracks_missing_subframes():
    scoreboard = BlockAckScoreboard()
    frames = [subframe(ME, sequence=number) for number in (1, 2, 3)]
    scoreboard.register(frames)
    block_ack = BlockAck.for_outcome(SENDER, [frames[0].sequence, frames[2].sequence])
    missing = scoreboard.apply(block_ack)
    assert missing == [frames[1]]
    assert not scoreboard.empty
    assert list(scoreboard.outstanding.values()) == [frames[1]]


def test_block_ack_acknowledges():
    block_ack = BlockAck.for_outcome(SENDER, [5, 7])
    assert block_ack.acknowledges(5)
    assert not block_ack.acknowledges(6)


def test_partial_block_ack_releases_the_acknowledged_subframes_on_the_journey():
    # A 2.6 Mbps A-MPDU over 4 m loses single subframes while the base-rate
    # control frames survive, so the block ACK covers only part of the
    # unicast portion: those subframes leave custody, the rest are retried.
    with observe(trace=True, metrics=True, journey=True) as session:
        sim = Simulator(seed=1)
        scenario = MobileScenario(sim, policy=unicast_aggregation(), unicast_rate_mbps=2.6,
                                  use_block_ack=True)
        scenario.add_node((0.0, 0.0))
        scenario.add_node((4.0, 0.0))
        scenario.connect_chain(1, 2)
        network = scenario.network
        sender = network.node(1).udp.bind(9000)
        network.node(2).udp.bind(9000)
        for _ in range(6):
            sim.schedule_at(0.5, sender.send_to, network.node(2).ip, 9000, 1000)
        sim.run(until=3.0)
    outcomes = {}
    for event in ("acked", "retry"):
        for fields in journey_event_fields(session, "mac", event, "node1"):
            outcomes.setdefault((fields["attempt"], fields["t"]), set()).add(event)
    partial = [key for key, seen in outcomes.items() if seen == {"acked", "retry"}]
    assert partial
    assert network.node(2).udp.delivered == 6
    assert audit_balanced(session)
