"""Process-wide simulation throughput counters.

The campaign runner (:mod:`repro.campaign.runner`) reports each job's events
and simulated time on its live progress lines (events/s per job), but the
simulators involved are created deep inside the experiment runners.  Rather
than thread a collector through every scenario builder,
:meth:`repro.sim.simulator.Simulator.run` adds its per-run totals to one
module-level accumulator on exit; the runner snapshots the accumulator before
and after each job and subtracts.

The accounting costs one attribute update per ``run()`` *call* (not per
event), so it is always on.
"""

from __future__ import annotations

from typing import Tuple


class SimTelemetry:
    """Accumulated event/time totals across every :class:`Simulator` run."""

    __slots__ = ("events", "sim_seconds", "runs")

    def __init__(self) -> None:
        self.events = 0
        self.sim_seconds = 0.0
        self.runs = 0

    def record_run(self, events: int, sim_seconds: float) -> None:
        """Add one ``Simulator.run()`` invocation's totals."""
        self.events += events
        self.sim_seconds += sim_seconds
        self.runs += 1

    def record_remote(self, events: int, sim_seconds: float, runs: int = 0) -> None:
        """Fold in totals measured in *another* process.

        Campaign pool workers accumulate into their own process's
        ``TELEMETRY``, which dies with the worker; the runner carries each
        job's deltas back in the job result and credits them here so the
        parent's totals cover the whole campaign regardless of ``--jobs``.
        """
        self.events += events
        self.sim_seconds += sim_seconds
        self.runs += runs

    def snapshot(self) -> Tuple[int, float, int]:
        """Current ``(events, sim_seconds, runs)`` totals."""
        return (self.events, self.sim_seconds, self.runs)


#: The process-wide accumulator written by every simulator in this process.
TELEMETRY = SimTelemetry()
