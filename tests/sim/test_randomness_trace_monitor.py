"""Unit tests for random streams and the tracer."""

from __future__ import annotations

from repro.obs.timeline import TraceStore
from repro.sim.randomness import RandomStreams


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------

def test_same_seed_and_label_give_same_sequence():
    a = RandomStreams(7).stream("mac.node1")
    b = RandomStreams(7).stream("mac.node1")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_labels_give_different_sequences():
    streams = RandomStreams(7)
    a = streams.stream("mac.node1")
    b = streams.stream("mac.node2")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_give_different_sequences():
    a = RandomStreams(1).stream("x")
    b = RandomStreams(2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    streams = RandomStreams(3)
    assert streams.stream("phy") is streams.stream("phy")
    assert "phy" in streams


def test_fresh_stream_matches_stream_and_is_not_kept():
    streams = RandomStreams(3)
    fresh = streams.fresh_stream("link")
    assert "link" not in streams
    assert fresh is not streams.fresh_stream("link")
    expected = RandomStreams(3).stream("link")
    assert [fresh.random() for _ in range(5)] == [expected.random() for _ in range(5)]


def test_fork_derives_independent_root():
    root = RandomStreams(9)
    fork_a = root.fork("run-a")
    fork_b = root.fork("run-b")
    assert fork_a.root_seed != fork_b.root_seed
    assert RandomStreams(9).fork("run-a").root_seed == fork_a.root_seed


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_disabled_records_nothing(sim):
    # No listener is attached, so the tracer is off and emit() is a no-op.
    assert not sim.tracer.enabled
    sim.tracer.emit("node1.mac", "mac", "enqueue", queue="ucast", bytes=100)
    store = TraceStore()
    sim.tracer.add_listener(store.on_record)
    assert sim.tracer.enabled
    assert store.records == []


def test_tracer_records_and_filters(sim):
    # The timeline store keeps timeline events with their scalar fields and
    # filters out journey-only events and the objects a record carries.
    store = TraceStore()
    sim.tracer.add_listener(store.on_record)
    packet = object()
    sim.tracer.emit("node1.mac", "mac", "enqueue", queue="ucast", bytes=100,
                    packet=packet)
    sim.tracer.emit("node1.net", "net", "forward", ttl=3, packet=packet)
    sim.tracer.emit("node2.mac", "mac", "rts", dst="02:00:00:00:00:01")
    sim.tracer.emit("node1.phy", "phy", "tx_start")
    assert [(r.source, r.category, r.event) for r in store.records] == [
        ("node1.mac", "mac", "enqueue"), ("node2.mac", "mac", "rts"),
        ("node1.phy", "phy", "tx_start")]
    assert store.records[0].fields == {"queue": "ucast", "bytes": 100}
    text = str(store.records[0])
    assert "mac.enqueue" in text


def test_tracer_listener_invoked(sim):
    seen = []
    sim.tracer.add_listener(seen.append)
    sim.tracer.emit("n", "cat", "ev", source="a field named source")
    assert len(seen) == 1 and seen[0].event == "ev"
    assert seen[0].fields == {"source": "a field named source"}


def test_tracer_max_records(sim):
    store = TraceStore(max_records=2)
    sim.tracer.add_listener(store.on_record)
    for i in range(5):
        sim.tracer.emit("n.phy", "phy", "tx_end", kind=f"k{i}")
    assert len(store.records) == 2
    assert store.dropped == 3


def test_tracer_overflow_still_reaches_listeners(sim):
    """Storage truncates at max_records but the listener stream is complete."""
    store = TraceStore(max_records=1)
    sim.tracer.add_listener(store.on_record)
    seen = []
    sim.tracer.add_listener(seen.append)
    for i in range(4):
        sim.tracer.emit("n.phy", "phy", "tx_end", kind=f"k{i}")
    assert [record.fields["kind"] for record in store.records] == ["k0"]
    assert store.dropped == 3
    assert [record.fields["kind"] for record in seen] == ["k0", "k1", "k2", "k3"]
