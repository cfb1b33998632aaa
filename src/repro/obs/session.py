"""Ambient observability session.

Experiments construct their :class:`~repro.sim.simulator.Simulator` instances
deep inside their runners (a ``fig09`` sweep creates one per parameter
point), so observability cannot be threaded through call signatures without
touching every experiment.  Instead, an :class:`ObsSession` is installed as
the process-wide *active session*; ``Simulator.__init__`` calls
:func:`on_simulator_created`, and the session adopts each new simulator by
attaching one listener per requested feature to its tracer:

* a :class:`~repro.obs.timeline.TraceStore` (bounded by ``max_trace_records``),
* a live :class:`~repro.obs.metrics.MetricsRegistry`, which also replaces
  :data:`~repro.obs.metrics.NULL_METRICS` to receive the components'
  snapshot-time collectors,
* a :class:`~repro.obs.journey.JourneyRecorder`,
* the session's shared :class:`~repro.obs.capture.FrameCapture`.

Everything adopted only *observes* — no RNG draws, no scheduling — so runs
are byte-identical with a session active or not (enforced by tests).

Use the :func:`observe` context manager::

    with observe(trace=True, metrics=True) as session:
        result = run_fig09(Fig09Params(...))
        session.export_timeline("timeline.json")
        session.export_metrics("metrics.json")
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.capture import FrameCapture
from repro.obs.journey import (
    JourneyRecorder,
    conservation_audit,
    flow_arrows,
    flow_summaries,
    journey_document,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TraceStore, export_chrome_trace


@dataclass(frozen=True)
class ObsConfig:
    """Which observability features an :class:`ObsSession` turns on."""

    trace: bool = False
    metrics: bool = False
    capture: bool = False
    journey: bool = False
    #: Per-simulator timeline store bound (other listeners see every record).
    max_trace_records: Optional[int] = 500_000
    #: Shared capture storage bound across all simulators of the session.
    max_capture_frames: Optional[int] = 500_000
    #: Per-simulator journey-recorder bound (packets past it are counted,
    #: not followed).
    max_journeys: Optional[int] = 200_000


class ObsSession:
    """Adopts every simulator created while active and owns the exports."""

    def __init__(self, config: ObsConfig) -> None:
        self.config = config
        #: Adopted simulators, in creation order (deterministic per run).
        self.simulators: List[Any] = []
        #: Per adopted simulator: its timeline store and journey recorder
        #: (``None`` where the feature is off).
        self.trace_stores: List[Optional[TraceStore]] = []
        self.journeys: List[Optional[JourneyRecorder]] = []
        self.capture: Optional[FrameCapture] = (
            FrameCapture(max_frames=config.max_capture_frames)
            if config.capture else None)

    # ------------------------------------------------------------------
    # Adoption (called from Simulator.__init__ via the module hook)
    # ------------------------------------------------------------------
    def adopt(self, sim: Any) -> None:
        """Attach the session's listeners to a newly created simulator."""
        config = self.config
        tracer = sim.tracer
        store = TraceStore(config.max_trace_records) if config.trace else None
        journey = (JourneyRecorder(max_journeys=config.max_journeys)
                   if config.journey else None)
        if config.metrics:
            sim.metrics = MetricsRegistry()
            tracer.add_listener(sim.metrics.on_record)
        for listener in (store, journey, self.capture):
            if listener is not None:
                tracer.add_listener(listener.on_record)
        self.simulators.append(sim)
        self.trace_stores.append(store)
        self.journeys.append(journey)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def _timeline_groups(self) -> Tuple[List[Tuple[str, List[Any]]],
                                        List[Tuple[str, List[Dict[str, Any]]]]]:
        """Trace record groups and journey flow arrows, keyed by the same
        ``sim<index>/`` prefixes (empty when one simulator was traced)."""
        traced = [(store, journey)
                  for store, journey in zip(self.trace_stores, self.journeys)
                  if store is not None and store.records]
        groups = [(f"sim{index}/" if len(traced) > 1 else "", store, journey)
                  for index, (store, journey) in enumerate(traced)]
        return ([(prefix, store.records) for prefix, store, _ in groups],
                [(prefix, flow_arrows(journey)) for prefix, _, journey in groups
                 if journey is not None])

    def export_timeline(self, path: str) -> int:
        """Write the Chrome trace JSON to ``path``; returns the event count."""
        records, flows = self._timeline_groups()
        return export_chrome_trace(records, path, flow_groups=flows)

    def metrics_document(self) -> Dict[str, Any]:
        """Deterministic metrics dump: one snapshot per adopted simulator."""
        return {
            "simulations": [
                {"simulation": index, "metrics": sim.metrics.snapshot()}
                for index, sim in enumerate(self.simulators)
                if sim.metrics.enabled
            ],
        }

    def export_metrics(self, path: str) -> None:
        """Write the metrics document to ``path`` as sorted, indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.metrics_document(), handle, indent=1,
                      sort_keys=True, default=repr)

    def export_capture(self, path: str) -> int:
        """Write the shared frame capture as JSONL; returns the entry count."""
        if self.capture is None:
            raise ValueError("capture is not enabled for this session")
        return self.capture.to_jsonl(path)

    # ------------------------------------------------------------------
    # Journeys
    # ------------------------------------------------------------------
    def journey_recorders(self) -> List[Tuple[int, JourneyRecorder]]:
        """``(simulation index, recorder)`` for every journey-enabled sim."""
        return [(index, recorder) for index, recorder in enumerate(self.journeys)
                if recorder is not None]

    def journey_count(self) -> int:
        """Total number of packet journeys recorded across all simulators."""
        return sum(len(recorder) for _, recorder in self.journey_recorders())

    def journey_documents(self) -> Dict[str, Any]:
        """Full journey dump: one document per journey-enabled simulator."""
        return {
            "simulations": [
                {"simulation": index, **journey_document(recorder)}
                for index, recorder in self.journey_recorders()
            ],
        }

    def export_journeys(self, path: str) -> int:
        """Write the journey documents to ``path``; returns the journey count."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.journey_documents(), handle, indent=1,
                      sort_keys=True, default=repr)
        return self.journey_count()

    def flow_report(self, src: Optional[str] = None,
                    dst: Optional[str] = None) -> List[Dict[str, Any]]:
        """Merged per-flow summaries across every journey-enabled simulator."""
        report: List[Dict[str, Any]] = []
        for index, recorder in self.journey_recorders():
            for summary in flow_summaries(recorder, src=src, dst=dst):
                if len(self.journey_recorders()) > 1:
                    summary = {"simulation": index, **summary}
                report.append(summary)
        return report

    def conservation_report(self) -> Dict[str, Any]:
        """Per-simulator conservation audits plus the overall verdict."""
        audits = [
            {"simulation": index, "audit": conservation_audit(recorder)}
            for index, recorder in self.journey_recorders()
        ]
        return {
            "balanced": all(entry["audit"]["balanced"] for entry in audits),
            "simulations": audits,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObsSession {self.config} sims={len(self.simulators)}>"


# ----------------------------------------------------------------------
# The ambient active session
# ----------------------------------------------------------------------
_ACTIVE: Optional[ObsSession] = None


def on_simulator_created(sim: Any) -> None:
    """Hook called by ``Simulator.__init__``; adopts ``sim`` when a session
    is active, otherwise does nothing (one global load and branch)."""
    if _ACTIVE is not None:
        _ACTIVE.adopt(sim)


@contextmanager
def observe(trace: bool = False, metrics: bool = False, capture: bool = False,
            journey: bool = False,
            max_trace_records: Optional[int] = 500_000,
            max_capture_frames: Optional[int] = 500_000,
            max_journeys: Optional[int] = 200_000
            ) -> Iterator[ObsSession]:
    """Install an :class:`ObsSession` for the duration of the block.

    Sessions do not nest: installing a second one while another is active
    raises, because both would try to adopt the same simulators.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an observability session is already active")
    session = ObsSession(ObsConfig(
        trace=trace, metrics=metrics, capture=capture, journey=journey,
        max_trace_records=max_trace_records,
        max_capture_frames=max_capture_frames,
        max_journeys=max_journeys))
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None
