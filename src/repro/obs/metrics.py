"""Hierarchical metrics registry.

One :class:`MetricsRegistry` holds every metric of one simulator run.  Three
instrument kinds cover the repo's needs:

* :class:`Counter` — a monotonically increasing count (frames transmitted,
  exchanges failed);
* :class:`Gauge` — a point-in-time value (queue depth, totals harvested from
  an existing statistics object at snapshot time); and
* :class:`Histogram` — a fixed-bucket distribution (SNR, retries per
  exchange, frame airtime).

Metrics are identified by a dotted hierarchical name (``"phy.rx_frames"``)
plus a **label set** (``node="node3.phy", outcome="collided"``), so one
logical metric fans out per node / per layer / per outcome without ad-hoc
dict-of-dict counters.

Two sources fill a registry, and neither costs anything when observability
is off:

* **Live instruments** are derived from the simulator's trace records:
  :meth:`MetricsRegistry.on_record` is a tracer listener, and
  :data:`LIVE_METRICS` maps each ``layer.event`` it understands to the
  counters and histograms it updates.  Protocol layers never call the
  registry on the hot path.
* **Collectors** — callbacks run at snapshot time that harvest an existing
  statistics object (e.g. :class:`~repro.mac.stats.MacStatistics`) into
  gauges.  Every simulator starts with the shared disabled
  :data:`NULL_METRICS` registry, which ignores collector registration.

Snapshots are **deterministically ordered** (sorted by name, then by the
sorted label items), so two runs of the same seed serialize byte-identically
and snapshots can be compared with ``==``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every histogram's bucket upper bounds, ascending (``+Inf`` is implicit).
#: Chosen to be useful for the repo's distributions (dB values, retry
#: counts, airtimes in ms).
DEFAULT_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: A resolved metric key: the dotted name plus the sorted label items.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _labels_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self) -> None:
        """Add one."""
        self.value += 1


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value

    def add(self, amount: float) -> None:
        """Adjust the gauge by ``amount`` (for up/down quantities)."""
        self.value += amount


class Histogram:
    """A distribution over :data:`DEFAULT_BUCKETS` with total count and sum."""

    __slots__ = ("bucket_counts", "count", "total")

    def __init__(self) -> None:
        self.bucket_counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        for index, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0


#: Signature of a snapshot-time collector: it receives the registry and sets
#: gauges (or increments counters) from state it already maintains.
Collector = Callable[["MetricsRegistry"], None]


class MetricsRegistry:
    """Registry of named, labelled instruments with deterministic export.

    A disabled registry (:data:`NULL_METRICS`) accepts no collectors and
    records nothing through :meth:`inc`, :meth:`set_gauge` or
    :meth:`observe`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------------
    # Instrument resolution
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, _labels_key(labels))
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, _labels_key(labels))
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge()
        return found

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = (name, _labels_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram()
        return found

    # ------------------------------------------------------------------
    # One-shot helpers (resolve + record)
    # ------------------------------------------------------------------
    def inc(self, name: str, **labels: Any) -> None:
        """Increment the counter ``(name, labels)`` by one."""
        if self.enabled:
            self.counter(name, **labels).inc()

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``(name, labels)`` to ``value``."""
        if self.enabled:
            self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` in the histogram ``(name, labels)``."""
        if self.enabled:
            self.histogram(name, **labels).observe(value)

    def on_record(self, record: Any) -> None:
        """Tracer listener: update the live instruments ``record`` drives."""
        update = LIVE_METRICS.get((record.category, record.event))
        if update is not None:
            update(self, record.source, record.fields)

    # ------------------------------------------------------------------
    # Collectors
    # ------------------------------------------------------------------
    def register_collector(self, collector: Collector) -> None:
        """Run ``collector(registry)`` at every snapshot (no-op when disabled).

        Collectors let a layer export statistics it already maintains (the
        MAC's :class:`~repro.mac.stats.MacStatistics`, the forwarding
        engine's counters) without paying anything on the hot path.
        """
        if self.enabled:
            self._collectors.append(collector)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Deterministically ordered JSON-compatible dump of every metric.

        Collectors run first (in registration order — construction order,
        which is deterministic) so harvested gauges are current.
        """
        for collector in self._collectors:
            collector(self)
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": counter.value}
                for (name, labels), counter in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": gauge.value}
                for (name, labels), gauge in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "count": histogram.count,
                    "sum": histogram.total,
                    "buckets": [
                        {"le": bound, "count": count}
                        for bound, count in zip(
                            list(DEFAULT_BUCKETS) + ["+Inf"],
                            histogram.bucket_counts)
                    ],
                }
                for (name, labels), histogram in sorted(self._histograms.items())
            ],
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} instruments={len(self)}>"


#: The shared disabled registry every :class:`~repro.sim.simulator.Simulator`
#: starts with.  It never stores anything, so sharing one instance
#: process-wide is safe.
NULL_METRICS = MetricsRegistry(enabled=False)


def _phy_tx(registry: MetricsRegistry, node: str, fields: Dict[str, Any]) -> None:
    kind = fields["kind"]
    registry.inc("phy.tx_frames", node=node, kind=kind)
    registry.inc("channel.transmissions", node=node, kind=kind)
    registry.observe("channel.airtime_ms", fields["duration"] * 1e3, node=node)


def _phy_rx(registry: MetricsRegistry, node: str, fields: Dict[str, Any]) -> None:
    result = fields["result"]
    outcome = ("collided" if fields["collided"]
               else "decoded" if result.any_ok else "undecoded")
    registry.inc("phy.rx_frames", node=node, kind=fields["kind"], outcome=outcome)
    registry.observe("phy.rx_snr_db", result.snr_db, node=node)


def _exchange_done(registry: MetricsRegistry, node: str, fields: Dict[str, Any]) -> None:
    registry.inc("mac.exchanges", node=node, outcome="success")
    registry.observe("mac.exchange_retries", fields["retries"], node=node)


#: ``(layer, event) -> update(registry, source, fields)``: the live
#: instruments each trace record drives.
LIVE_METRICS: Dict[Tuple[str, str], Callable[[MetricsRegistry, str, Dict[str, Any]], None]] = {
    ("phy", "tx_start"): _phy_tx,
    ("phy", "rx_end"): _phy_rx,
    ("mac", "enqueue"): lambda registry, node, fields: registry.inc(
        "mac.enqueued", node=node, queue=fields["queue"]),
    ("mac", "drop"): lambda registry, node, fields: registry.inc(
        "mac.queue_drops", node=node,
        kind="broadcast" if fields["queue"] == "bcast" else "unicast"),
    ("mac", "exchange_done"): _exchange_done,
    ("mac", "exchange_failed"): lambda registry, node, fields: registry.inc(
        "mac.exchanges", node=node, outcome="failure"),
    ("discovery", "neighbor_up"): lambda registry, node, fields: registry.inc(
        "discovery.neighbor_events", node=node, transition="up"),
    ("discovery", "neighbor_down"): lambda registry, node, fields: registry.inc(
        "discovery.neighbor_events", node=node, transition="down"),
    ("aodv", "rreq_tx"): lambda registry, node, fields: registry.inc(
        "aodv.control_tx", node=node, kind="rreq"),
    ("dsdv", "update_tx"): lambda registry, node, fields: registry.inc(
        "dsdv.updates", node=node, kind="triggered" if fields["triggered"] else "periodic"),
}
