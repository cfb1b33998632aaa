"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import json

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------

def test_counter_increments_per_label_set():
    registry = MetricsRegistry()
    registry.inc("phy.tx_frames", node="n1", kind="data")
    registry.inc("phy.tx_frames", node="n1", kind="data")
    for _ in range(5):
        registry.inc("phy.tx_frames", node="n2", kind="data")
    assert registry.counter("phy.tx_frames", node="n1", kind="data").value == 2
    assert registry.counter("phy.tx_frames", node="n2", kind="data").value == 5


def test_label_order_is_irrelevant():
    registry = MetricsRegistry()
    a = registry.counter("m", x=1, y=2)
    b = registry.counter("m", y=2, x=1)
    assert a is b


def test_gauge_set_and_add():
    registry = MetricsRegistry()
    gauge = registry.gauge("queue.depth", node="n1")
    gauge.set(4.0)
    gauge.add(-1.5)
    assert registry.gauge("queue.depth", node="n1").value == 2.5


def test_histogram_buckets_count_and_mean():
    histogram = Histogram()
    for value in (0.5, 1.0, 5.0, 1000.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.total == 1006.5
    # <=0, <=1, <=2, <=5, <=10, <=20, <=50, <=100, +Inf
    assert histogram.bucket_counts == [0, 2, 0, 1, 0, 0, 0, 0, 1]
    assert histogram.mean == 1006.5 / 4
    assert Histogram().mean == 0.0


def test_histogram_bounds_are_sorted_and_defaulted():
    assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
    registry = MetricsRegistry()
    registry.observe("h", 3.0)
    (histogram,) = registry.snapshot()["histograms"]
    assert [bucket["le"] for bucket in histogram["buckets"]] == (
        list(DEFAULT_BUCKETS) + ["+Inf"])


# ---------------------------------------------------------------------------
# Disabled registry: zero storage
# ---------------------------------------------------------------------------

def test_disabled_registry_stores_nothing():
    registry = MetricsRegistry(enabled=False)
    registry.inc("a", node="x")
    registry.set_gauge("b", 1.0)
    registry.observe("c", 2.0)
    registry.register_collector(lambda r: r.set_gauge("d", 1.0))
    assert len(registry) == 0
    snapshot = registry.snapshot()
    assert snapshot == {"counters": [], "gauges": [], "histograms": []}


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def _populate(registry: MetricsRegistry, order: str) -> None:
    names = ["b.count", "a.count", "c.count"]
    if order == "reversed":
        names = names[::-1]
    for name in names:
        for node in ("n2", "n1"):
            registry.inc(name, node=node)
    registry.set_gauge("g", 7.0)
    registry.observe("h", 3.0)


def test_snapshot_is_deterministically_ordered():
    first, second = MetricsRegistry(), MetricsRegistry()
    _populate(first, "forward")
    _populate(second, "reversed")  # different creation order, same content
    assert first.snapshot() == second.snapshot()
    names = [c["name"] for c in first.snapshot()["counters"]]
    assert names == sorted(names)


def test_snapshot_is_json_serializable():
    registry = MetricsRegistry()
    _populate(registry, "forward")
    payload = json.dumps(registry.snapshot(), sort_keys=True)
    assert json.loads(payload)["histograms"][0]["buckets"][-1]["le"] == "+Inf"


def test_collectors_run_at_snapshot_in_registration_order():
    registry = MetricsRegistry()
    calls = []
    registry.register_collector(lambda r: calls.append("first"))
    registry.register_collector(
        lambda r: (calls.append("second"), r.set_gauge("harvested", 9.0)))
    assert calls == []
    snapshot = registry.snapshot()
    assert calls == ["first", "second"]
    assert snapshot["gauges"] == [{"name": "harvested", "labels": {}, "value": 9.0}]
