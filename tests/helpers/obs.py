"""Reading an observability session through its exports.

Tests that pin an instrumentation site run a hand-built scenario under
``observe(trace=True, metrics=True, journey=True)`` and then look at what the
site produced.  They read the session's export documents (the timeline, the
journey documents and the conservation report), not the instruments' storage,
so the assertions hold however the instruments are wired.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: One journey event as the pinning tests compare it.
JourneyKey = Tuple[str, str, Optional[str], str]


def trace_records(session: Any, category: str, event: str) -> List[Dict[str, Any]]:
    """The ``args`` of every timeline instant event ``category.event``."""
    return [entry["args"] for entry in session.timeline_document()["traceEvents"]
            if entry.get("cat") == category and entry["name"] == event
            and entry["ph"] == "i"]


def journey_events(session: Any) -> List[JourneyKey]:
    """Every recorded journey event as ``(layer, event, reason, node)``."""
    keys: List[JourneyKey] = []
    for simulation in session.journey_documents()["simulations"]:
        for journey in simulation["journeys"]:
            for event in journey["events"]:
                reason = event.get("fields", {}).get("reason")
                keys.append((event["layer"], event["event"], reason, event["node"]))
    return keys


def journey_event_fields(session: Any, layer: str, event: str,
                         node: str) -> List[Dict[str, Any]]:
    """Fields of every ``layer.event`` journey event recorded at ``node``."""
    found: List[Dict[str, Any]] = []
    for simulation in session.journey_documents()["simulations"]:
        for journey in simulation["journeys"]:
            for entry in journey["events"]:
                if (entry["layer"], entry["event"], entry["node"]) == (layer, event, node):
                    found.append({"t": entry["t"], **entry.get("fields", {})})
    return found


def audit_balanced(session: Any) -> bool:
    """True when the conservation audit balances on every node of every run."""
    return session.conservation_report()["balanced"]
