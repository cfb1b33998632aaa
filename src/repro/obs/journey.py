"""Per-packet journey tracing: flight recorder, waterfalls, conservation audit.

A *journey* is the life of one network-layer packet, identified by its
``Packet.uid`` and followed through every layer it touches: transport send,
routing decision (including buffer-while-discovering), MAC queueing,
aggregation into a specific subframe of a specific A-MPDU attempt, per-attempt
PHY reception outcome, retry chains and a terminal fate — delivered, or a
reason-coded drop (``queue_full``, ``no_route``, ``rreq_exhausted``,
``retry_limit``, ``ttl``, ...).

The :class:`JourneyRecorder` is the recording half: a tracer listener that
turns trace records into :class:`JourneyEvent` entries (strings and numbers
only) in a side table keyed by packet uid — packets are never mutated, so
byte-determinism is untouched.  It also numbers each MAC's aggregate attempts.

The analysis half runs off the hot path, after the simulation:

* :func:`journey_outcome` replays one journey's events through a custody
  state machine (who is responsible for the packet right now?) and derives
  the per-node ledger entries plus the journey's fate;
* :func:`conservation_audit` folds every journey's outcome into a per-node
  ledger and asserts ``entered = delivered + transferred + Σ drops(reason) +
  in-flight`` — a packet that vanished without an exit event is a *leak* and
  fails the audit;
* :func:`journey_waterfall` decomposes a delivered unicast journey's
  end-to-end latency hop by hop into forwarding, queue wait, aggregation
  wait, retry wait and airtime — telescoping sums, so attribution is exact;
* :func:`flow_summaries` groups journeys into (src, dst, protocol) flows
  with fate counts and mean waterfall components;
* :func:`flow_arrows` emits the point lists the timeline exporter turns
  into Perfetto flow arrows.

Custody model
-------------

Each node holds *custody* of a journey from an **enter** event until an
**exit** event:

=============================  =======================================
enter                          ``net.origin`` (locally originated),
                               ``mac.deliver`` (received from the air)
exit: delivered                ``net.deliver``, ``net.deliver_bcast``
exit: transferred              ``mac.acked`` (link-level ACK received),
                               ``mac.sent_unacked`` (broadcast portion
                               transmitted; no ACK expected)
exit: dropped                  ``net.drop``/``mac.drop`` with a ``reason``
valid in-flight positions      ``mac.enqueue``, ``mac.aggregate``,
                               ``mac.tx``, ``mac.retry``, ``net.buffer``
=============================  =======================================

A transport-layer drop (``udp.drop``/``tcp.drop``) arrives *after* the
network layer counted the packet delivered and reclassifies that delivery.
Any journey whose custody is still open at audit time on an event that is
not a valid in-flight position is a leak.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Journey",
    "JourneyEvent",
    "JourneyRecorder",
    "conservation_audit",
    "flow_arrows",
    "flow_summaries",
    "format_flow_report",
    "journey_document",
    "journey_outcome",
    "journey_waterfall",
    "node_of",
]

#: The IP broadcast address as the string journeys carry.
_BROADCAST_DST = "255.255.255.255"
#: At most this many journey flow arrows go into one simulator's timeline.
MAX_FLOW_ARROWS = 2000


def node_of(name: str, layer: str) -> str:
    """Node identity of a component named ``"<node>.<layer>"``.

    ``node_of("node1.mac", "mac")`` → ``"node1"``.  Components whose names do
    not follow the convention (hand-wired tests) keep their full name, which
    is still consistent per component.
    """
    suffix = "." + layer
    if name.endswith(suffix):
        return name[: -len(suffix)]
    return name


class JourneyEvent:
    """One hop-level observation on a journey."""

    __slots__ = ("time", "node", "layer", "event", "fields")

    def __init__(self, time: float, node: str, layer: str, event: str,
                 fields: Optional[Dict[str, Any]]) -> None:
        self.time = time
        self.node = node
        self.layer = layer
        self.event = event
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"t": self.time, "node": self.node,
                                 "layer": self.layer, "event": self.event}
        if self.fields:
            entry["fields"] = dict(self.fields)
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<JourneyEvent t={self.time:.6f} {self.node} "
                f"{self.layer}.{self.event}>")


class Journey:
    """The recorded life of one packet."""

    __slots__ = ("journey_id", "src", "dst", "protocol", "payload_bytes",
                 "origin_time", "events")

    def __init__(self, journey_id: int, src: str, dst: str, protocol: str,
                 payload_bytes: int, origin_time: float) -> None:
        self.journey_id = journey_id
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload_bytes = payload_bytes
        self.origin_time = origin_time
        self.events: List[JourneyEvent] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Journey #{self.journey_id} {self.src}->{self.dst} "
                f"{self.protocol} events={len(self.events)}>")


class JourneyRecorder:
    """Flight recorder for packet journeys (the per-simulator instrument).

    Journey ids are assigned in ``begin()`` order, which is deterministic per
    seed, so exports are reproducible.  ``max_journeys`` bounds memory; once
    reached, new packets are counted in ``dropped`` and silently skipped
    (``record()`` on an untracked uid is a no-op), which the audit reports as
    truncation rather than failing.
    """

    __slots__ = ("max_journeys", "dropped", "journeys", "_by_uid", "_attempts")

    def __init__(self, max_journeys: Optional[int] = 200_000) -> None:
        self.max_journeys = max_journeys
        self.dropped = 0
        self.journeys: List[Journey] = []
        self._by_uid: Dict[int, Journey] = {}
        #: Aggregate attempts per MAC (trace source), numbered from 1.
        self._attempts: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.journeys)

    def begin(self, now: float, node: str, layer: str, packet: Any,
              event: str = "send", **fields: Any) -> None:
        """Open a journey for ``packet`` (idempotent) and record ``event``.

        Called at the packet's first appearance — the transport send or, for
        packets originated below the transport layer, the network-layer
        origin.  A later ``begin`` on an already-open journey just records.
        """
        uid = packet.uid
        journey = self._by_uid.get(uid)
        if journey is None:
            if (self.max_journeys is not None
                    and len(self.journeys) >= self.max_journeys):
                self.dropped += 1
                return
            ip = packet.ip
            journey = Journey(
                journey_id=len(self.journeys) + 1,
                src=str(ip.src), dst=str(ip.dst), protocol=ip.protocol,
                payload_bytes=packet.payload_bytes, origin_time=now)
            self.journeys.append(journey)
            self._by_uid[uid] = journey
        journey.events.append(
            JourneyEvent(now, node, layer, event, fields or None))

    def record(self, now: float, node: str, layer: str, event: str,
               packet: Any, **fields: Any) -> None:
        """Append one event to ``packet``'s journey; no-op when untracked."""
        journey = self._by_uid.get(packet.uid)
        if journey is None:
            return
        journey.events.append(
            JourneyEvent(now, node, layer, event, fields or None))

    # ------------------------------------------------------------------
    # The tracer listener
    # ------------------------------------------------------------------
    def on_record(self, record: Any) -> None:
        """Tracer listener: turn one trace record into journey events.

        A record with a ``packet`` field is one journey event, keeping its
        other fields; records about a frame, an aggregate or a buffer fan
        out to one event per packet.
        """
        fields = record.fields
        node = node_of(record.source, _SOURCE_LAYER.get(record.category, "net"))
        packet = fields.get("packet")
        if packet is not None:
            omitted = _NOT_KEPT.get((record.category, record.event), ())
            kept = {name: value for name, value in fields.items()
                    if name != "packet" and name not in omitted}
            if record.event in ("send", "origin"):
                self.begin(record.time, node, record.category, packet,
                           event=record.event, **kept)
            else:
                self.record(record.time, node, record.category, record.event,
                            packet, **kept)
            return
        fan_out = _FAN_OUT.get((record.category, record.event))
        if fan_out is not None:
            fan_out(self, record, node, self._attempts.get(record.source, 0))

    def _phy_rx(self, record: Any, node: str, attempt: int) -> None:
        result = record.fields["result"]  # control frames carry no subframes
        ok = result.broadcast_ok + result.unicast_ok
        for (_, _, subframe), passed in zip(_subframes(result.frame), ok):
            self.record(record.time, node, "phy", "rx", subframe.packet,
                        ok=passed, collided=record.fields["collided"],
                        snr=record.fields["snr"])

    def _mac_aggregate(self, record: Any, node: str, attempt: int) -> None:
        attempt = self._attempts[record.source] = attempt + 1
        for portion, slot, subframe in _subframes(record.fields["build"]):
            self.record(record.time, node, "mac", "aggregate", subframe.packet,
                        attempt=attempt, slot=slot, portion=portion)

    def _mac_tx(self, record: Any, node: str, attempt: int) -> None:
        for portion, _, subframe in _subframes(record.fields["frame"]):
            self.record(record.time, node, "mac", "tx", subframe.packet,
                        attempt=attempt, portion=portion)

    def _mac_sent_unacked(self, record: Any, node: str, attempt: int) -> None:
        for subframe in record.fields["frame"].broadcast_subframes:
            self.record(record.time, node, "mac", "sent_unacked",
                        subframe.packet, attempt=attempt)

    def _mac_exchange_done(self, record: Any, node: str, attempt: int) -> None:
        build = record.fields["build"]
        for subframe in build.unicast_subframes if build is not None else ():
            self.record(record.time, node, "mac", "acked", subframe.packet,
                        attempt=attempt)

    def _mac_exchange_failed(self, record: Any, node: str, attempt: int) -> None:
        fields = record.fields
        build, unacked = fields["build"], fields["unacked"]
        missing = {id(subframe) for subframe in unacked}
        # A partial block ACK released the subframes it covered.
        for subframe in build.unicast_subframes:
            if id(subframe) not in missing:
                self.record(record.time, node, "mac", "acked", subframe.packet,
                            attempt=attempt)
        if not fields["gave_up"]:
            for subframe in unacked:
                self.record(record.time, node, "mac", "retry", subframe.packet,
                            attempt=attempt, count=subframe.retries)
            return
        # After a failed RTS chain the broadcast portion never went out and
        # dies with the unicast portion.
        unsent = () if fields["data_sent"] else build.broadcast_subframes
        for subframe in list(unacked) + list(unsent):
            self.record(record.time, node, "mac", "drop", subframe.packet,
                        reason="retry_limit")

    def _aodv_discovery_failed(self, record: Any, node: str, attempt: int) -> None:
        for packet in record.fields["packets"]:
            self.record(record.time, node, "net", "drop", packet,
                        reason="rreq_exhausted")


def _subframes(carrier: Any) -> Iterable[Tuple[str, int, Any]]:
    """``(portion, slot, subframe)`` over a frame's or aggregate's subframes."""
    for portion, subframes in (("broadcast", carrier.broadcast_subframes),
                               ("unicast", carrier.unicast_subframes)):
        for slot, subframe in enumerate(subframes):
            yield portion, slot, subframe


#: Sources are named ``"<node>.<suffix>"``; the suffix per record layer where
#: it is not ``net`` (network, transport and application records are emitted
#: under the node's network-layer name).
_SOURCE_LAYER = {"phy": "phy", "mac": "mac", "aodv": "aodv"}

#: Fields a one-packet record carries for the timeline or the metrics only.
_NOT_KEPT = {("mac", "enqueue"): ("bytes",), ("mac", "drop"): ("queue",)}

#: Records about several packets -> the method that fans them out.
_FAN_OUT = {
    ("phy", "rx_end"): JourneyRecorder._phy_rx,
    ("mac", "aggregate"): JourneyRecorder._mac_aggregate,
    ("mac", "data_tx"): JourneyRecorder._mac_tx,
    ("mac", "sent_unacked"): JourneyRecorder._mac_sent_unacked,
    ("mac", "exchange_done"): JourneyRecorder._mac_exchange_done,
    ("mac", "exchange_failed"): JourneyRecorder._mac_exchange_failed,
    ("aodv", "discovery_failed"): JourneyRecorder._aodv_discovery_failed,
}


# ----------------------------------------------------------------------
# Custody replay: per-journey outcome
# ----------------------------------------------------------------------
#: enter event -> which ledger column it credits.
_ENTER_EVENTS: Dict[Tuple[str, str], str] = {
    ("net", "origin"): "originated",
    ("mac", "deliver"): "received",
}
_DELIVER_EXITS = {("net", "deliver"), ("net", "deliver_bcast")}
_TRANSFER_EXITS = {("mac", "acked"), ("mac", "sent_unacked")}
_DROP_EVENTS = {("net", "drop"), ("mac", "drop")}
_RECLASSIFY_DROPS = {("udp", "drop"), ("tcp", "drop")}
_IN_FLIGHT_POSITIONS = {("mac", "enqueue"), ("mac", "aggregate"),
                        ("mac", "tx"), ("mac", "retry"), ("net", "buffer")}


class JourneyOutcome:
    """Ledger contributions and derived fate of one journey."""

    __slots__ = ("originated", "received", "delivered", "transferred",
                 "drops", "in_flight", "leaks", "fate", "fate_reason")

    def __init__(self) -> None:
        self.originated: Counter = Counter()        # node -> count
        self.received: Counter = Counter()          # node -> count
        self.delivered: Counter = Counter()         # node -> count
        self.transferred: Counter = Counter()       # node -> count
        self.drops: Counter = Counter()             # (node, reason) -> count
        self.in_flight: Dict[str, str] = {}         # node -> "layer.event"
        self.leaks: Dict[str, str] = {}             # node -> "layer.event"
        self.fate = "untracked"
        self.fate_reason: Optional[str] = None


def journey_outcome(journey: Journey) -> JourneyOutcome:
    """Replay ``journey`` through the custody state machine."""
    out = JourneyOutcome()
    open_custody: Dict[str, Tuple[str, str]] = {}
    last_drop_reason: Optional[str] = None
    for ev in journey.events:
        key = (ev.layer, ev.event)
        node = ev.node
        column = _ENTER_EVENTS.get(key)
        if column is not None:
            getattr(out, column)[node] += 1
            open_custody[node] = key
        elif key in _DELIVER_EXITS:
            open_custody.pop(node, None)
            out.delivered[node] += 1
        elif key in _TRANSFER_EXITS:
            open_custody.pop(node, None)
            out.transferred[node] += 1
        elif key in _DROP_EVENTS:
            reason = (ev.fields or {}).get("reason", "unspecified")
            last_drop_reason = reason
            if node in open_custody:
                del open_custody[node]
            else:
                # A drop after local delivery (e.g. no handler registered for
                # the protocol): reclassify the delivery.  A genuinely
                # spurious drop pushes the counter negative, which the audit
                # reports as an imbalance instead of hiding it.
                out.delivered[node] -= 1
            out.drops[(node, reason)] += 1
        elif key in _RECLASSIFY_DROPS:
            reason = (ev.fields or {}).get("reason", "unspecified")
            last_drop_reason = reason
            out.delivered[node] -= 1
            out.drops[(node, reason)] += 1
        elif node in open_custody:
            open_custody[node] = key

    for node, key in open_custody.items():
        label = f"{key[0]}.{key[1]}"
        if key in _IN_FLIGHT_POSITIONS:
            out.in_flight[node] = label
        else:
            out.leaks[node] = label

    delivered_total = sum(out.delivered.values())
    if out.leaks:
        out.fate = "leaked"
    elif out.in_flight:
        out.fate = "in_flight"
    elif delivered_total > 0:
        out.fate = "delivered"
    elif out.drops:
        out.fate = "dropped"
        out.fate_reason = last_drop_reason
    elif sum(out.transferred.values()) > 0:
        # Transmitted without acknowledgement (a broadcast) and decoded by
        # nobody: physically lost on the air, fully accounted at the sender.
        out.fate = "lost_on_air"
    return out


# ----------------------------------------------------------------------
# Conservation audit
# ----------------------------------------------------------------------
def conservation_audit(recorder: JourneyRecorder) -> Dict[str, Any]:
    """Per-node packet-conservation ledger over every recorded journey.

    For every node the identity ``originated + received == delivered +
    transferred + Σ drops(reason) + in_flight`` must hold, and no journey may
    leak (custody open on an event that is not a valid in-flight position).
    The returned document has ``balanced`` (the hard pass/fail bit), per-node
    ledgers, totals, and the violation list.
    """
    ledgers: Dict[str, Dict[str, Any]] = {}
    violations: List[Dict[str, Any]] = []

    def ledger(node: str) -> Dict[str, Any]:
        entry = ledgers.get(node)
        if entry is None:
            entry = {"originated": 0, "received": 0, "delivered": 0,
                     "transferred": 0, "drops": {}, "in_flight": {},
                     "leaked": 0}
            ledgers[node] = entry
        return entry

    for journey in recorder.journeys:
        outcome = journey_outcome(journey)
        for node, count in outcome.originated.items():
            ledger(node)["originated"] += count
        for node, count in outcome.received.items():
            ledger(node)["received"] += count
        for node, count in outcome.delivered.items():
            ledger(node)["delivered"] += count
        for node, count in outcome.transferred.items():
            ledger(node)["transferred"] += count
        for (node, reason), count in outcome.drops.items():
            drops = ledger(node)["drops"]
            drops[reason] = drops.get(reason, 0) + count
        for node, position in outcome.in_flight.items():
            in_flight = ledger(node)["in_flight"]
            in_flight[position] = in_flight.get(position, 0) + 1
        for node, position in outcome.leaks.items():
            ledger(node)["leaked"] += 1
            violations.append({
                "kind": "leak", "journey": journey.journey_id, "node": node,
                "last_event": position,
                "flow": f"{journey.src}->{journey.dst}"})

    totals = {"originated": 0, "received": 0, "delivered": 0,
              "transferred": 0, "dropped": 0, "in_flight": 0, "leaked": 0}
    for node in sorted(ledgers):
        entry = ledgers[node]
        dropped = sum(entry["drops"].values())
        in_flight = sum(entry["in_flight"].values())
        entered = entry["originated"] + entry["received"]
        exited = entry["delivered"] + entry["transferred"] + dropped
        entry["balanced"] = (
            entered == exited + in_flight + entry["leaked"]
            and entry["leaked"] == 0
            and entry["delivered"] >= 0
            and all(count >= 0 for count in entry["drops"].values()))
        if not entry["balanced"] and entry["leaked"] == 0:
            violations.append({
                "kind": "imbalance", "node": node,
                "entered": entered,
                "accounted": exited + in_flight + entry["leaked"]})
        totals["originated"] += entry["originated"]
        totals["received"] += entry["received"]
        totals["delivered"] += entry["delivered"]
        totals["transferred"] += entry["transferred"]
        totals["dropped"] += dropped
        totals["in_flight"] += in_flight
        totals["leaked"] += entry["leaked"]

    return {
        "balanced": not violations,
        "journeys": len(recorder.journeys),
        "truncated": recorder.dropped,
        "nodes": {node: ledgers[node] for node in sorted(ledgers)},
        "totals": totals,
        "violations": violations,
    }


# ----------------------------------------------------------------------
# Latency waterfalls
# ----------------------------------------------------------------------
_WATERFALL_COMPONENTS = ("forwarding", "queue", "aggregation", "retries",
                        "airtime")


def journey_waterfall(journey: Journey) -> Optional[Dict[str, Any]]:
    """Hop-by-hop latency decomposition of a delivered unicast journey.

    Per hop: ``forwarding`` (enter → MAC enqueue, including any
    buffer-while-discovering wait), ``queue`` (enqueue → first aggregation),
    ``aggregation`` (first aggregation → first transmission, i.e. RTS/CTS
    and inter-frame spacing), ``retries`` (first → last transmission) and
    ``airtime`` (last transmission → custody at the next node).  Hop
    boundaries share the same event timestamp, so the components telescope
    and attribution over the end-to-end latency is exact.

    Returns ``None`` for journeys that were not delivered or are broadcast
    (a broadcast journey is a tree, not a chain).
    """
    if journey.dst == _BROADCAST_DST:
        return None
    hops: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = None
    final_exit: Optional[float] = None
    for ev in journey.events:
        key = (ev.layer, ev.event)
        if key in _ENTER_EVENTS:
            if current is not None:
                current["exit"] = ev.time
                hops.append(current)
            current = {"node": ev.node, "enter": ev.time, "enqueue": None,
                       "first_aggregate": None, "first_tx": None,
                       "last_tx": None, "retry_count": 0, "exit": None}
            continue
        if current is None or ev.node != current["node"]:
            continue
        if key == ("mac", "enqueue") and current["enqueue"] is None:
            current["enqueue"] = ev.time
        elif key == ("mac", "aggregate") and current["first_aggregate"] is None:
            current["first_aggregate"] = ev.time
        elif key == ("mac", "tx"):
            if current["first_tx"] is None:
                current["first_tx"] = ev.time
            current["last_tx"] = ev.time
        elif key == ("mac", "retry"):
            current["retry_count"] += 1
        elif key == ("net", "deliver"):
            current["exit"] = ev.time
            hops.append(current)
            final_exit = ev.time
            current = None
    if final_exit is None:
        return None

    components = {name: 0.0 for name in _WATERFALL_COMPONENTS}
    hop_entries: List[Dict[str, Any]] = []
    for hop in hops:
        enter, exit_time = hop["enter"], hop["exit"]
        enqueue = hop["enqueue"]
        if enqueue is None:
            # Loopback delivery or the terminal node: no MAC involvement.
            parts = {"forwarding": exit_time - enter, "queue": 0.0,
                     "aggregation": 0.0, "retries": 0.0, "airtime": 0.0}
        else:
            first_aggregate = hop["first_aggregate"]
            first_tx = hop["first_tx"]
            last_tx = hop["last_tx"]
            if first_aggregate is None:
                first_aggregate = first_tx if first_tx is not None else exit_time
            if first_tx is None:
                first_tx = last_tx = exit_time
            parts = {
                "forwarding": enqueue - enter,
                "queue": first_aggregate - enqueue,
                "aggregation": first_tx - first_aggregate,
                "retries": last_tx - first_tx,
                "airtime": exit_time - last_tx,
            }
        for name in _WATERFALL_COMPONENTS:
            components[name] += parts[name]
        if exit_time > enter or enqueue is not None:
            hop_entries.append({
                "node": hop["node"], "enter": enter, "exit": exit_time,
                "retry_count": hop["retry_count"], **parts})

    total = final_exit - journey.origin_time
    attributed = sum(components.values())
    return {
        "total": total,
        "attributed": attributed,
        "attribution": attributed / total if total > 0 else 1.0,
        "components": components,
        "hops": hop_entries,
    }


# ----------------------------------------------------------------------
# Flow grouping
# ----------------------------------------------------------------------
def flow_summaries(recorder: JourneyRecorder,
                   src: Optional[str] = None,
                   dst: Optional[str] = None) -> List[Dict[str, Any]]:
    """Per-(src, dst, protocol) fate counts and mean waterfall components."""
    flows: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
    for journey in recorder.journeys:
        if src is not None and journey.src != src:
            continue
        if dst is not None and journey.dst != dst:
            continue
        key = (journey.src, journey.dst, journey.protocol)
        flow = flows.get(key)
        if flow is None:
            flow = {"src": key[0], "dst": key[1], "protocol": key[2],
                    "journeys": 0, "fates": {}, "drop_reasons": {},
                    "latencies": [], "components": Counter(),
                    "attributions": [], "hops": {}}
            flows[key] = flow
        flow["journeys"] += 1
        outcome = journey_outcome(journey)
        flow["fates"][outcome.fate] = flow["fates"].get(outcome.fate, 0) + 1
        if outcome.fate == "dropped" and outcome.fate_reason is not None:
            reasons = flow["drop_reasons"]
            reasons[outcome.fate_reason] = (
                reasons.get(outcome.fate_reason, 0) + 1)
        if outcome.fate != "delivered":
            continue
        waterfall = journey_waterfall(journey)
        if waterfall is None:
            continue
        flow["latencies"].append(waterfall["total"])
        flow["attributions"].append(waterfall["attribution"])
        for name, value in waterfall["components"].items():
            flow["components"][name] += value
        for index, hop in enumerate(waterfall["hops"]):
            hop_key = (index, hop["node"])
            entry = flow["hops"].get(hop_key)
            if entry is None:
                entry = {"count": 0, "retry_count": 0,
                         **{name: 0.0 for name in _WATERFALL_COMPONENTS}}
                flow["hops"][hop_key] = entry
            entry["count"] += 1
            entry["retry_count"] += hop["retry_count"]
            for name in _WATERFALL_COMPONENTS:
                entry[name] += hop[name]

    summaries: List[Dict[str, Any]] = []
    for key in sorted(flows):
        flow = flows[key]
        latencies = flow["latencies"]
        measured = len(latencies)
        summary: Dict[str, Any] = {
            "src": flow["src"], "dst": flow["dst"],
            "protocol": flow["protocol"], "journeys": flow["journeys"],
            "fates": dict(sorted(flow["fates"].items())),
            "drop_reasons": dict(sorted(flow["drop_reasons"].items())),
            "measured": measured,
        }
        if measured:
            summary["latency"] = {
                "mean": sum(latencies) / measured,
                "min": min(latencies), "max": max(latencies)}
            summary["attribution"] = (
                sum(flow["attributions"]) / measured)
            summary["components"] = {
                name: flow["components"][name] / measured
                for name in _WATERFALL_COMPONENTS}
            summary["hops"] = [
                {"hop": index + 1, "node": node,
                 "count": entry["count"],
                 "mean_retries": entry["retry_count"] / entry["count"],
                 **{name: entry[name] / entry["count"]
                    for name in _WATERFALL_COMPONENTS}}
                for (index, node), entry in sorted(flow["hops"].items())]
        summaries.append(summary)
    return summaries


def format_flow_report(summaries: Sequence[Dict[str, Any]]) -> str:
    """Human-readable hop-by-hop breakdown of flow summaries (CLI output)."""
    if not summaries:
        return "no matching journeys"

    def ms(value: float) -> str:
        return f"{value * 1e3:.2f} ms"

    lines: List[str] = []
    for flow in summaries:
        fates = ", ".join(f"{fate} {count}"
                          for fate, count in flow["fates"].items())
        if flow["drop_reasons"]:
            reasons = ", ".join(f"{reason} {count}" for reason, count
                                in flow["drop_reasons"].items())
            fates += f" [{reasons}]"
        lines.append(f"flow {flow['src']} -> {flow['dst']} "
                     f"({flow['protocol']}): {flow['journeys']} journey(s); "
                     f"{fates}")
        if not flow["measured"]:
            continue
        latency = flow["latency"]
        lines.append(
            f"  end-to-end latency mean {ms(latency['mean'])} "
            f"(min {ms(latency['min'])}, max {ms(latency['max'])}), "
            f"attribution {flow['attribution'] * 100:.1f}%")
        components = flow["components"]
        lines.append("  mean decomposition: " + " | ".join(
            f"{name} {ms(components[name])}"
            for name in _WATERFALL_COMPONENTS))
        for hop in flow.get("hops", []):
            lines.append(
                f"  hop {hop['hop']} {hop['node']}: " + ", ".join(
                    f"{name} {ms(hop[name])}"
                    for name in _WATERFALL_COMPONENTS)
                + f", mean retries {hop['mean_retries']:.2f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def journey_document(recorder: JourneyRecorder) -> Dict[str, Any]:
    """The full JSON-ready journey document for one simulator."""
    journeys: List[Dict[str, Any]] = []
    for journey in recorder.journeys:
        outcome = journey_outcome(journey)
        entry: Dict[str, Any] = {
            "id": journey.journey_id,
            "src": journey.src, "dst": journey.dst,
            "protocol": journey.protocol,
            "payload_bytes": journey.payload_bytes,
            "origin": journey.origin_time,
            "fate": outcome.fate,
        }
        if outcome.fate_reason is not None:
            entry["fate_reason"] = outcome.fate_reason
        if outcome.drops:
            entry["drops"] = [
                {"node": node, "reason": reason, "count": count}
                for (node, reason), count in sorted(outcome.drops.items())]
        delivered = sum(outcome.delivered.values())
        if delivered:
            entry["delivered"] = delivered
        if outcome.in_flight:
            entry["in_flight"] = dict(sorted(outcome.in_flight.items()))
        if outcome.leaks:
            entry["leaks"] = dict(sorted(outcome.leaks.items()))
        waterfall = journey_waterfall(journey)
        if waterfall is not None:
            entry["waterfall"] = waterfall
        entry["events"] = [ev.to_dict() for ev in journey.events]
        journeys.append(entry)
    return {
        "journeys": journeys,
        "flows": flow_summaries(recorder),
        "audit": conservation_audit(recorder),
    }


def flow_arrows(recorder: JourneyRecorder) -> List[Dict[str, Any]]:
    """Flow-arrow point lists for the timeline exporter.

    One arrow per delivered (or in-flight) unicast journey with at least two
    custody points: origin → each MAC delivery → final network delivery;
    the first :data:`MAX_FLOW_ARROWS` such journeys.
    """
    arrows: List[Dict[str, Any]] = []
    for journey in recorder.journeys:
        if journey.dst == _BROADCAST_DST:
            continue
        points: List[Tuple[float, str, str]] = []
        for ev in journey.events:
            key = (ev.layer, ev.event)
            if key in _ENTER_EVENTS or key == ("net", "deliver"):
                points.append((ev.time, ev.node, ev.layer))
        if len(points) < 2:
            continue
        arrows.append({
            "id": journey.journey_id,
            "name": f"journey {journey.journey_id} "
                    f"{journey.src}->{journey.dst}",
            "points": points,
        })
        if len(arrows) >= MAX_FLOW_ARROWS:
            break
    return arrows
