"""Unit tests for the journey flight recorder, waterfalls and the audit.

These drive :mod:`repro.obs.journey` with hand-crafted journeys (fake
packets, explicit timestamps) so every custody transition, fate and
waterfall component is pinned independently of the simulator.  The
integration-level guarantees (byte-neutrality, audits balancing on real
experiments) live in ``tests/integration/test_obs_determinism.py``.
"""

from __future__ import annotations

import itertools

import pytest

from repro.obs import journey as journey_module
from repro.obs.journey import (
    JourneyRecorder,
    conservation_audit,
    flow_arrows,
    flow_summaries,
    format_flow_report,
    journey_document,
    journey_outcome,
    journey_waterfall,
    node_of,
)
from repro.obs.timeline import chrome_trace_events

_UIDS = itertools.count(1)


class _Ip:
    def __init__(self, src: str, dst: str, protocol: str) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol


class _Packet:
    def __init__(self, src: str = "10.0.0.1", dst: str = "10.0.0.2",
                 protocol: str = "udp", payload_bytes: int = 100) -> None:
        self.uid = next(_UIDS)
        self.ip = _Ip(src, dst, protocol)
        self.payload_bytes = payload_bytes


def _recorder(**kwargs) -> JourneyRecorder:
    return JourneyRecorder(**kwargs)


# ----------------------------------------------------------------------
# Recorder mechanics
# ----------------------------------------------------------------------
def test_node_of_strips_the_layer_suffix():
    assert node_of("node1.mac", "mac") == "node1"
    assert node_of("node1.phy", "phy") == "node1"
    # Unconventional names (hand-wired tests) pass through unchanged.
    assert node_of("standalone", "mac") == "standalone"


def test_begin_is_idempotent_and_record_is_a_noop_when_untracked():
    recorder = _recorder()
    packet = _Packet()
    recorder.begin(0.0, "node1", "net", packet, event="origin")
    recorder.begin(0.1, "node1", "net", packet, event="reinject")
    assert len(recorder) == 1
    journey = recorder.journeys[0]
    assert [ev.event for ev in journey.events] == ["origin", "reinject"]
    assert (journey.src, journey.dst, journey.protocol) == \
        ("10.0.0.1", "10.0.0.2", "udp")
    # An AODV probe (or any packet that never passed begin) is ignored.
    recorder.record(0.2, "node1", "mac", "enqueue", _Packet())
    assert len(recorder) == 1


def test_cap_counts_overflow_and_keeps_capped_packets_untracked():
    recorder = _recorder(max_journeys=1)
    first, second = _Packet(), _Packet()
    recorder.begin(0.0, "node1", "net", first, event="origin")
    recorder.begin(0.1, "node1", "net", second, event="origin")
    assert len(recorder) == 1
    assert recorder.dropped == 1
    recorder.record(0.2, "node1", "mac", "enqueue", second)
    assert len(recorder.journeys[0].events) == 1
    audit = conservation_audit(recorder)
    assert audit["truncated"] == 1


# ----------------------------------------------------------------------
# Custody outcomes and the audit
# ----------------------------------------------------------------------
def _delivered_two_hop(recorder: JourneyRecorder) -> _Packet:
    """node1 -> node2 (relay) -> node3, clean delivery, known timestamps."""
    packet = _Packet(dst="10.0.0.3")
    recorder.begin(0.0, "node1", "net", packet, event="origin")
    recorder.record(0.001, "node1", "mac", "enqueue", packet)
    recorder.record(0.003, "node1", "mac", "aggregate", packet)
    recorder.record(0.004, "node1", "mac", "tx", packet)
    recorder.record(0.006, "node1", "mac", "acked", packet)
    recorder.record(0.006, "node2", "mac", "deliver", packet)
    recorder.record(0.006, "node2", "net", "forward", packet)
    recorder.record(0.007, "node2", "mac", "enqueue", packet)
    recorder.record(0.010, "node2", "mac", "aggregate", packet)
    recorder.record(0.012, "node2", "mac", "tx", packet)
    recorder.record(0.013, "node2", "mac", "retry", packet)
    recorder.record(0.015, "node2", "mac", "tx", packet)
    recorder.record(0.017, "node2", "mac", "acked", packet)
    recorder.record(0.017, "node3", "mac", "deliver", packet)
    recorder.record(0.017, "node3", "net", "deliver", packet)
    return packet


def test_delivered_journey_balances_on_every_node():
    recorder = _recorder()
    _delivered_two_hop(recorder)
    outcome = journey_outcome(recorder.journeys[0])
    assert outcome.fate == "delivered"
    assert outcome.transferred == {"node1": 1, "node2": 1}
    assert outcome.delivered == {"node3": 1}
    audit = conservation_audit(recorder)
    assert audit["balanced"], audit
    assert audit["nodes"]["node1"] == {
        "originated": 1, "received": 0, "delivered": 0, "transferred": 1,
        "drops": {}, "in_flight": {}, "leaked": 0, "balanced": True}
    assert audit["nodes"]["node3"]["delivered"] == 1
    assert audit["totals"]["leaked"] == 0


def test_drop_reason_is_ledgered_and_becomes_the_fate():
    recorder = _recorder()
    packet = _Packet()
    recorder.begin(0.0, "node1", "net", packet, event="origin")
    recorder.record(0.001, "node1", "mac", "drop", packet,
                    reason="queue_full")
    outcome = journey_outcome(recorder.journeys[0])
    assert outcome.fate == "dropped"
    assert outcome.fate_reason == "queue_full"
    audit = conservation_audit(recorder)
    assert audit["balanced"]
    assert audit["nodes"]["node1"]["drops"] == {"queue_full": 1}


def test_transport_drop_reclassifies_a_network_delivery():
    recorder = _recorder()
    packet = _Packet()
    recorder.begin(0.0, "node1", "net", packet, event="origin")
    recorder.record(0.001, "node1", "mac", "enqueue", packet)
    recorder.record(0.002, "node1", "mac", "tx", packet)
    recorder.record(0.003, "node1", "mac", "acked", packet)
    recorder.record(0.003, "node2", "mac", "deliver", packet)
    recorder.record(0.003, "node2", "net", "deliver", packet)
    recorder.record(0.003, "node2", "udp", "drop", packet, reason="no_port")
    outcome = journey_outcome(recorder.journeys[0])
    assert outcome.fate == "dropped"
    assert outcome.fate_reason == "no_port"
    assert sum(outcome.delivered.values()) == 0
    assert conservation_audit(recorder)["balanced"]


def test_in_flight_positions_balance_without_leaking():
    recorder = _recorder()
    packet = _Packet()
    recorder.begin(0.0, "node1", "net", packet, event="origin")
    recorder.record(0.001, "node1", "mac", "enqueue", packet)
    outcome = journey_outcome(recorder.journeys[0])
    assert outcome.fate == "in_flight"
    assert outcome.in_flight == {"node1": "mac.enqueue"}
    audit = conservation_audit(recorder)
    assert audit["balanced"]
    assert audit["nodes"]["node1"]["in_flight"] == {"mac.enqueue": 1}


def test_open_custody_on_a_non_position_event_is_a_leak():
    recorder = _recorder()
    packet = _Packet()
    recorder.begin(0.0, "node1", "net", packet, event="origin")
    # "forward" hands the packet back toward the MAC; a journey that *ends*
    # there lost custody without an exit event — the audit must fail.
    recorder.record(0.001, "node1", "net", "forward", packet)
    outcome = journey_outcome(recorder.journeys[0])
    assert outcome.fate == "leaked"
    audit = conservation_audit(recorder)
    assert not audit["balanced"]
    assert audit["violations"][0]["kind"] == "leak"
    assert audit["violations"][0]["last_event"] == "net.forward"
    assert audit["nodes"]["node1"]["leaked"] == 1


def test_spurious_drop_surfaces_as_an_imbalance_not_a_pass():
    recorder = _recorder()
    packet = _Packet()
    recorder.begin(0.0, "node1", "net", packet, event="origin")
    recorder.record(0.001, "node1", "mac", "enqueue", packet)
    recorder.record(0.002, "node1", "mac", "drop", packet, reason="x")
    # A second drop with no custody open pushes delivered negative.
    recorder.record(0.003, "node1", "mac", "drop", packet, reason="x")
    audit = conservation_audit(recorder)
    assert not audit["balanced"]
    assert any(v["kind"] == "imbalance" for v in audit["violations"])


def test_unheard_broadcast_is_lost_on_air():
    recorder = _recorder()
    packet = _Packet(dst="255.255.255.255")
    recorder.begin(0.0, "node1", "net", packet, event="origin")
    recorder.record(0.001, "node1", "mac", "enqueue", packet)
    recorder.record(0.002, "node1", "mac", "tx", packet)
    recorder.record(0.003, "node1", "mac", "sent_unacked", packet)
    outcome = journey_outcome(recorder.journeys[0])
    assert outcome.fate == "lost_on_air"
    assert conservation_audit(recorder)["balanced"]


# ----------------------------------------------------------------------
# Waterfalls
# ----------------------------------------------------------------------
def test_waterfall_attribution_is_exact_on_a_two_hop_journey():
    recorder = _recorder()
    _delivered_two_hop(recorder)
    waterfall = journey_waterfall(recorder.journeys[0])
    assert waterfall is not None
    assert waterfall["total"] == pytest.approx(0.017)
    assert waterfall["attribution"] == pytest.approx(1.0)
    components = waterfall["components"]
    # Hop 1: fwd 0.001, queue 0.002, agg 0.001, retries 0, air 0.002.
    # Hop 2: fwd 0.001, queue 0.003, agg 0.002, retries 0.003, air 0.002.
    assert components["forwarding"] == pytest.approx(0.002)
    assert components["queue"] == pytest.approx(0.005)
    assert components["aggregation"] == pytest.approx(0.003)
    assert components["retries"] == pytest.approx(0.003)
    assert components["airtime"] == pytest.approx(0.004)
    assert [hop["node"] for hop in waterfall["hops"]] == ["node1", "node2"]
    assert waterfall["hops"][1]["retry_count"] == 1


def test_waterfall_is_none_for_broadcast_and_undelivered_journeys():
    recorder = _recorder()
    flood = _Packet(dst="255.255.255.255")
    recorder.begin(0.0, "node1", "net", flood, event="origin")
    stuck = _Packet()
    recorder.begin(0.0, "node1", "net", stuck, event="origin")
    recorder.record(0.001, "node1", "mac", "enqueue", stuck)
    assert journey_waterfall(recorder.journeys[0]) is None
    assert journey_waterfall(recorder.journeys[1]) is None


# ----------------------------------------------------------------------
# Flow summaries, report text, exports
# ----------------------------------------------------------------------
def test_flow_summaries_group_by_flow_and_average_components():
    recorder = _recorder()
    _delivered_two_hop(recorder)
    dropped = _Packet(dst="10.0.0.3")
    recorder.begin(1.0, "node1", "net", dropped, event="origin")
    recorder.record(1.001, "node1", "mac", "drop", dropped,
                    reason="queue_full")
    other = _Packet(src="10.0.0.9", dst="10.0.0.3")
    recorder.begin(2.0, "node9", "net", other, event="origin")

    summaries = flow_summaries(recorder)
    assert len(summaries) == 2
    flow = next(s for s in summaries if s["src"] == "10.0.0.1")
    assert flow["journeys"] == 2
    assert flow["fates"] == {"delivered": 1, "dropped": 1}
    assert flow["drop_reasons"] == {"queue_full": 1}
    assert flow["measured"] == 1
    assert flow["attribution"] == pytest.approx(1.0)
    assert [hop["node"] for hop in flow["hops"]] == ["node1", "node2"]

    filtered = flow_summaries(recorder, src="10.0.0.9")
    assert len(filtered) == 1 and filtered[0]["measured"] == 0

    report = format_flow_report(summaries)
    assert "flow 10.0.0.1 -> 10.0.0.3 (udp)" in report
    assert "queue_full 1" in report
    assert "attribution 100.0%" in report
    assert "hop 2 node2" in report
    assert format_flow_report([]) == "no matching journeys"


def test_journey_document_carries_fates_waterfalls_and_the_audit():
    recorder = _recorder()
    _delivered_two_hop(recorder)
    document = journey_document(recorder)
    entry = document["journeys"][0]
    assert entry["fate"] == "delivered"
    assert entry["waterfall"]["attribution"] == pytest.approx(1.0)
    assert entry["events"][0]["event"] == "origin"
    assert document["audit"]["balanced"]


def test_flow_arrows_skip_broadcasts_and_respect_the_cap(monkeypatch):
    recorder = _recorder()
    _delivered_two_hop(recorder)
    flood = _Packet(dst="255.255.255.255")
    recorder.begin(0.0, "node1", "net", flood, event="origin")
    recorder.record(0.002, "node2", "mac", "deliver", flood)
    arrows = flow_arrows(recorder)
    assert len(arrows) == 1
    points = arrows[0]["points"]
    assert [node for _, node, _ in points] == ["node1", "node2", "node3",
                                               "node3"]
    _delivered_two_hop(recorder)
    assert len(flow_arrows(recorder)) == 2
    monkeypatch.setattr(journey_module, "MAX_FLOW_ARROWS", 1)
    assert len(flow_arrows(recorder)) == 1


def test_flow_arrows_render_as_chrome_flow_events():
    recorder = _recorder()
    _delivered_two_hop(recorder)
    events = chrome_trace_events([], flows=flow_arrows(recorder))
    flow_events = [ev for ev in events if ev.get("cat") == "journey"]
    assert [ev["ph"] for ev in flow_events] == ["s", "t", "t", "f"]
    assert flow_events[-1]["bp"] == "e"
    assert len({ev["id"] for ev in flow_events}) == 1
