"""Unit tests for random streams and the tracer."""

from __future__ import annotations

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
    sim.tracer.emit("node1", "mac", "tx", bytes=100)
    assert sim.tracer.records == []


def test_tracer_records_and_filters(traced_sim):
    traced_sim.tracer.emit("node1", "mac", "tx", bytes=100)
    traced_sim.tracer.emit("node2", "mac", "rx", bytes=100)
    traced_sim.tracer.emit("node1", "phy", "tx_start")
    assert len(traced_sim.tracer.records) == 3
    assert len(traced_sim.tracer.filter(category="mac")) == 2
    assert len(traced_sim.tracer.filter(source="node1")) == 2
    assert len(traced_sim.tracer.filter(category="mac", event="rx")) == 1
    text = str(traced_sim.tracer.records[0])
    assert "mac.tx" in text


def test_tracer_listener_invoked(traced_sim):
    seen = []
    traced_sim.tracer.add_listener(seen.append)
    traced_sim.tracer.emit("n", "cat", "ev")
    assert len(seen) == 1 and seen[0].event == "ev"


def test_tracer_max_records(sim):
    sim.tracer.enabled = True
    sim.tracer.max_records = 2
    for i in range(5):
        sim.tracer.emit("n", "c", f"e{i}")
    assert len(sim.tracer.records) == 2
    assert sim.tracer.dropped == 3


def test_tracer_overflow_still_reaches_listeners(sim):
    """Storage truncates at max_records but the listener stream is complete."""
    sim.tracer.enabled = True
    sim.tracer.max_records = 1
    seen = []
    sim.tracer.add_listener(seen.append)
    for i in range(4):
        sim.tracer.emit("n", "c", f"e{i}")
    assert [record.event for record in sim.tracer.records] == ["e0"]
    assert sim.tracer.dropped == 3
    assert [record.event for record in seen] == ["e0", "e1", "e2", "e3"]
    sim.tracer.clear()
    assert sim.tracer.records == []
    assert sim.tracer.dropped == 0

