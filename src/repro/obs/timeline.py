"""Chrome trace-event export for :class:`~repro.sim.trace.Tracer` streams.

:class:`TraceStore`, a tracer listener, keeps the records listed in
:data:`TIMELINE_FIELDS` with only their scalar fields; the exporter converts
them into the `Trace Event Format`_ consumed by Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``: one *process* track per
node and one *thread* lane per layer (phy, mac, dsdv, ...), so a run reads
like a per-node protocol timeline.

Record mapping:

* paired begin/end records (currently the PHY's ``tx_start``/``tx_end``)
  become complete ``"X"`` duration slices, so transmissions render as bars
  with their real airtime;
* every other record becomes an instant ``"i"`` event with the record's
  fields attached as ``args``;
* ``"M"`` metadata events name the process/thread tracks;
* journey flow descriptors (from :func:`repro.obs.journey.flow_arrows`)
  become ``"s"``/``"t"``/``"f"`` flow events sharing an id, which Perfetto
  renders as arrows connecting one packet's hops across node tracks.

Timestamps are simulated microseconds.  Export order is deterministic: track
ids are assigned by sorted name, and events keep the tracer's emission order
(itself deterministic per seed).

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: The records the timeline stores: ``(layer, event) -> fields kept``.
TIMELINE_FIELDS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("phy", "tx_start"): ("kind", "bytes", "duration"),
    ("phy", "tx_end"): ("kind",),
    ("phy", "rx_end"): ("kind", "snr", "collided"),
    ("mac", "enqueue"): ("queue", "bytes"),
    ("mac", "rts"): ("dst",),
    ("mac", "data_tx"): ("subframes", "bytes"),
    ("mac", "exchange_done"): ("broadcast_only",),
    ("mac", "exchange_failed"): ("retries", "data_sent"),
    ("discovery", "neighbor_up"): ("ip",),
    ("discovery", "neighbor_down"): ("ip",),
    ("aodv", "rreq_tx"): ("dest", "ttl", "attempt"),
    ("aodv", "discovery_failed"): ("dest", "dropped"),
    ("aodv", "discovery_complete"): ("dest", "flushed"),
    ("aodv", "rrep_tx"): ("origin", "via"),
    ("aodv", "rerr_tx"): ("destinations",),
    ("dsdv", "update_tx"): ("entries", "triggered"),
}

#: ``(category, begin event) -> end event`` pairs folded into "X" slices.
DURATION_PAIRS: Dict[Tuple[str, str], str] = {
    ("phy", "tx_start"): "tx_end",
}

_END_EVENTS = {(category, end): begin
               for (category, begin), end in DURATION_PAIRS.items()}


class TraceStore:
    """The timeline's record store, filled as a tracer listener."""

    def __init__(self, max_records: Optional[int] = None) -> None:
        self.max_records = max_records
        self.records: List[Any] = []
        #: Timeline records not stored because ``max_records`` was reached;
        #: non-zero means :attr:`records` is a truncated prefix.
        self.dropped = 0

    def on_record(self, record: Any) -> None:
        """Store ``record`` if the timeline shows it, keeping its scalar fields."""
        kept = TIMELINE_FIELDS.get((record.category, record.event))
        if kept is None:
            return
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped += 1
            return
        fields = record.fields
        self.records.append(type(record)(
            record.time, record.source, record.category, record.event,
            {name: fields[name] for name in kept if name in fields}))


def _split_source(source: str, category: str) -> Tuple[str, str]:
    """``"node1.phy"`` → ``("node1", "phy")``; undotted sources keep the
    record category as the lane name."""
    head, dot, tail = source.rpartition(".")
    if dot and head:
        return head, tail
    return source, category


def chrome_trace_events(records: Iterable[Any],
                        source_prefix: str = "",
                        flows: Optional[Sequence[Dict[str, Any]]] = None
                        ) -> List[Dict[str, Any]]:
    """Convert trace records into a list of Chrome trace-event dicts.

    ``records`` is any iterable of objects with the
    :class:`~repro.sim.trace.TraceRecord` attributes (``time``, ``source``,
    ``category``, ``event``, ``fields``).  ``source_prefix`` namespaces the
    node tracks (used when merging several simulators into one timeline).
    ``flows`` is an optional list of journey flow descriptors (``{"id",
    "name", "points": [(time, node, lane), ...]}``) rendered as flow arrows.
    """
    events: List[Dict[str, Any]] = []
    # (pid_name, tid_name, category, begin event) -> index of the open slice
    open_slices: Dict[Tuple[str, str, str, str], int] = {}
    track_names: set = set()

    for record in records:
        node, lane = _split_source(record.source, record.category)
        if source_prefix:
            node = f"{source_prefix}{node}"
        track_names.add((node, lane))
        ts = record.time * 1e6
        pair_end = DURATION_PAIRS.get((record.category, record.event))
        if pair_end is not None:
            event: Dict[str, Any] = {
                "name": record.event, "ph": "X", "ts": ts, "dur": 0.0,
                "pid": node, "tid": lane, "cat": record.category,
                "args": dict(record.fields),
            }
            open_slices[(node, lane, record.category, record.event)] = len(events)
            events.append(event)
            continue
        begin = _END_EVENTS.get((record.category, record.event))
        if begin is not None:
            index = open_slices.pop((node, lane, record.category, begin), None)
            if index is not None:
                slice_event = events[index]
                slice_event["dur"] = max(0.0, ts - slice_event["ts"])
                slice_event["name"] = begin.replace("_start", "")
                slice_event["args"].update(record.fields)
                continue
            # Unmatched end (e.g. the begin fell past max_records): degrade
            # to an instant event rather than dropping the information.
        events.append({
            "name": record.event, "ph": "i", "ts": ts, "s": "t",
            "pid": node, "tid": lane, "cat": record.category,
            "args": dict(record.fields),
        })

    for flow in flows or ():
        points = flow["points"]
        last = len(points) - 1
        for index, (time, node, lane) in enumerate(points):
            if source_prefix:
                node = f"{source_prefix}{node}"
            track_names.add((node, lane))
            event = {
                "name": flow["name"],
                "ph": "s" if index == 0 else ("f" if index == last else "t"),
                "ts": time * 1e6, "pid": node, "tid": lane,
                "cat": "journey", "id": flow["id"],
            }
            if index == last:
                event["bp"] = "e"
            events.append(event)

    # Stable numeric ids per track, assigned by sorted name so the export is
    # independent of event arrival order.
    pid_names = sorted({node for node, _ in track_names})
    pid_ids = {name: index + 1 for index, name in enumerate(pid_names)}
    tid_ids = {pair: index + 1 for index, pair in enumerate(sorted(track_names))}
    for event in events:
        node, lane = event["pid"], event["tid"]
        event["pid"] = pid_ids[node]
        event["tid"] = tid_ids[(node, lane)]

    metadata: List[Dict[str, Any]] = []
    for name in pid_names:
        metadata.append({"name": "process_name", "ph": "M", "pid": pid_ids[name],
                         "args": {"name": name}})
    for (node, lane) in sorted(track_names):
        metadata.append({"name": "thread_name", "ph": "M", "pid": pid_ids[node],
                         "tid": tid_ids[(node, lane)], "args": {"name": lane}})
    return metadata + events


def chrome_trace_document(
        record_groups: Sequence[Tuple[str, Iterable[Any]]],
        flow_groups: Optional[Sequence[Tuple[str, Sequence[Dict[str, Any]]]]] = None
        ) -> Dict[str, Any]:
    """Build the full trace JSON document from ``(prefix, records)`` groups.

    A single-simulator run passes one group with an empty prefix; a
    multi-simulator experiment passes one group per simulator (prefixes like
    ``"sim0/"``) and gets every node track of every run in one timeline.
    ``flow_groups`` optionally carries per-prefix journey flow descriptors
    (see :func:`chrome_trace_events`) keyed by the same prefixes.
    """
    flow_map = dict(flow_groups or ())
    events: List[Dict[str, Any]] = []
    for prefix, records in record_groups:
        events.extend(chrome_trace_events(records, source_prefix=prefix,
                                          flows=flow_map.get(prefix)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(
        record_groups: Sequence[Tuple[str, Iterable[Any]]],
        path: str,
        flow_groups: Optional[Sequence[Tuple[str, Sequence[Dict[str, Any]]]]] = None
        ) -> int:
    """Write the timeline JSON to ``path``; returns the trace-event count."""
    document = chrome_trace_document(record_groups, flow_groups=flow_groups)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"), default=repr)
    return len(document["traceEvents"])
