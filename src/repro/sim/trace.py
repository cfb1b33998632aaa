"""Event tracing: the one instrumentation channel.

Each protocol-layer site reports an event with one guarded call,
``tracer.emit(source, layer, event, **fields)``; the fields carry the packet,
frame, ``ReceptionResult`` or ``AggregateBuild`` concerned next to scalar
attributes.  The tracer stores nothing: it hands each :class:`TraceRecord` to
its listeners (the observability exports, attached by
:func:`repro.obs.session.observe`) and is enabled exactly while it has one.
See docs/OBSERVABILITY.md for the event table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


@dataclass(slots=True)
class TraceRecord:
    """A single trace entry."""

    time: float
    source: str
    category: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"{self.time * 1e3:10.3f}ms [{self.source}] {self.category}.{self.event} {extras}"


class Tracer:
    """Dispatches every emitted :class:`TraceRecord` to the listeners."""

    __slots__ = ("_sim", "enabled", "_listeners")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        #: True while at least one listener is attached; emission sites test
        #: it so an unobserved run pays one attribute load and a branch.
        self.enabled = False
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callable invoked for every emitted record.

        Listeners run synchronously, in registration order, from inside the
        emitting event.  They must only read the record: no RNG draws, no
        scheduling, no mutation of the objects it carries.
        """
        self._listeners.append(listener)
        self.enabled = True

    def emit(self, source: str, category: str, event: str, /, **fields: Any) -> None:
        """Hand one record to every listener (a no-op while none is attached).

        The first three parameters are positional-only, so a field may be
        called ``source`` too.
        """
        if not self.enabled:
            return
        record = TraceRecord(
            time=self._sim.now, source=source, category=category, event=event, fields=fields
        )
        for listener in self._listeners:
            listener(record)
