"""Parallel (experiment × seed × params) campaign execution.

Jobs fan out over a :class:`concurrent.futures.ProcessPoolExecutor` (or run
inline when ``jobs=1``), consult the :class:`~repro.campaign.cache.ResultCache`
before executing, and report progress to an observer.  Workers return the
``to_dict()`` form of :class:`~repro.stats.results.ExperimentResult` so only
plain JSON-compatible data crosses the process boundary.
"""

from __future__ import annotations

import concurrent.futures
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache, job_key
from repro.campaign.registry import get_registry
from repro.errors import ExperimentError
from repro.sim.telemetry import TELEMETRY
from repro.stats.aggregate import aggregate_experiment_results
from repro.stats.results import ExperimentResult


@dataclass(frozen=True)
class CampaignJob:
    """One unit of work: an experiment at fixed parameters with one seed.

    ``code_version`` (the ``repro`` package's source digest) versions the
    job's cache entries; :meth:`CampaignRunner.run_campaign` fills it in from
    the registry spec.
    """

    experiment_id: str
    params: Mapping[str, Any]
    seed: int
    code_version: str = ""

    def key(self) -> str:
        """Cache/dedup key for this job's coordinates."""
        return job_key(self.experiment_id, self.params, self.seed, self.code_version)

    def describe(self) -> str:
        """Short human-readable job label."""
        return f"{self.experiment_id}[seed={self.seed}]"


@dataclass
class JobOutcome:
    """What happened to one job: where the result came from, or why it failed."""

    job: CampaignJob
    status: str  #: ``"ran"`` | ``"cached"`` | ``"deduped"`` | ``"error"`` | ``"timeout"``
    result: Optional[ExperimentResult] = None
    error: str = ""
    elapsed: float = 0.0
    #: Simulator telemetry measured inside the executing process (zero for
    #: cached/deduped/failed jobs): events processed and simulated seconds
    #: covered.  Progress reporting derives per-job events/s from these.
    events: int = 0
    sim_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the job produced a result."""
        return self.result is not None


@dataclass
class CampaignOutcome:
    """A completed campaign: the aggregate plus every per-seed replica."""

    experiment_id: str
    params: Dict[str, Any]
    seeds: List[int]
    aggregate: ExperimentResult
    replicas: Dict[int, ExperimentResult]
    outcomes: List[JobOutcome] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible payload written by ``repro.campaign run --out``."""
        return {
            "experiment_id": self.experiment_id,
            "params": dict(self.params),
            "seeds": list(self.seeds),
            "aggregate": self.aggregate.to_dict(),
            "replicas": {str(seed): result.to_dict()
                         for seed, result in self.replicas.items()},
            "job_stats": {
                "ran": sum(1 for o in self.outcomes if o.status == "ran"),
                "cached": sum(1 for o in self.outcomes if o.status == "cached"),
                "deduped": sum(1 for o in self.outcomes if o.status == "deduped"),
                "failed": sum(1 for o in self.outcomes if not o.ok),
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignOutcome":
        """Rebuild a campaign outcome from :meth:`to_dict` output."""
        return cls(
            experiment_id=str(data["experiment_id"]),
            params=dict(data.get("params", {})),
            seeds=[int(s) for s in data.get("seeds", [])],
            aggregate=ExperimentResult.from_dict(data["aggregate"]),
            replicas={int(seed): ExperimentResult.from_dict(result)
                      for seed, result in data.get("replicas", {}).items()},
        )


def execute_job(experiment_id: str, params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Run one job in the current process (the pool's worker entry point)."""
    spec = get_registry().get(experiment_id)
    result = spec.run(seed=seed, **dict(params))
    return result.to_dict()


def _timed_execute_job(experiment_id: str, params: Mapping[str, Any],
                       seed: int) -> Tuple[float, Dict[str, Any],
                                           Tuple[int, float, int]]:
    """Worker wrapper measuring wall time and telemetry inside the process.

    Returns ``(elapsed, result_dict, (events, sim_seconds, runs))``.  The
    telemetry delta is measured against the *worker's* process-wide
    accumulator, which dies with the worker — returning it is the only way
    the parent can credit pool jobs to its own totals.
    """
    started = time.monotonic()
    events0, sim0, runs0 = TELEMETRY.snapshot()
    result_dict = execute_job(experiment_id, params, seed)
    events1, sim1, runs1 = TELEMETRY.snapshot()
    return (time.monotonic() - started, result_dict,
            (events1 - events0, sim1 - sim0, runs1 - runs0))


class CampaignRunner:
    """Executes batches of :class:`CampaignJob` with caching and parallelism.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` runs everything inline (no pool).
    cache:
        Optional :class:`ResultCache`; when set, completed jobs are stored and
        later batches are served incrementally.
    timeout:
        Per-job wall-clock budget in seconds once its result is awaited.
        Setting it routes execution through the pool even when ``jobs=1``
        (a job cannot time itself out), and a timed-out batch terminates
        its remaining workers instead of joining them.
    observer:
        Object with any of ``batch_started(batch)``, ``job_started(job)``,
        ``job_finished(outcome)`` — invoked from the coordinating process as
        jobs are submitted and complete (see
        :class:`~repro.obs.progress.ProgressReporter`).  Missing methods are
        skipped.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None,
                 observer: Optional[Any] = None) -> None:
        if jobs < 1:
            raise ExperimentError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.observer = observer

    def _notify(self, method: str, *args: Any) -> None:
        if self.observer is not None:
            callback = getattr(self.observer, method, None)
            if callback is not None:
                callback(*args)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_jobs(self, batch: Sequence[CampaignJob]) -> List[JobOutcome]:
        """Run a batch, serving cached jobs first and fanning the rest out.

        Identical (experiment, params, seed, code) jobs inside one batch are
        deduplicated: the first occurrence executes, duplicates share its
        outcome with status ``"deduped"`` — duplicate submissions cost one
        execution, not N.
        """
        self._notify("batch_started", batch)
        outcomes: Dict[int, JobOutcome] = {}
        pending: List[int] = []
        primary_for_key: Dict[str, int] = {}
        duplicate_of: Dict[int, int] = {}
        for index, job in enumerate(batch):
            key = job.key()
            if key in primary_for_key:
                duplicate_of[index] = primary_for_key[key]
                continue
            primary_for_key[key] = index
            cached = None
            if self.cache is not None:
                cached = self.cache.get(job.experiment_id, job.params, job.seed,
                                        job.code_version)
            if cached is not None:
                outcomes[index] = JobOutcome(
                    job=job, status="cached",
                    result=ExperimentResult.from_dict(cached))
                self._notify("job_finished", outcomes[index])
            else:
                pending.append(index)

        if pending:
            # Per-job timeouts can only be enforced from outside the job, so
            # a timed run always goes through the pool, even with one worker.
            if self.jobs > 1 or self.timeout is not None:
                self._run_pool(batch, pending, outcomes)
            else:
                self._run_inline(batch, pending, outcomes)

        for index, primary_index in duplicate_of.items():
            primary = outcomes[primary_index]
            outcomes[index] = JobOutcome(
                job=batch[index], status="deduped",
                result=primary.result, error=primary.error)
            self._notify("job_finished", outcomes[index])
        return [outcomes[index] for index in range(len(batch))]

    def _finish(self, index: int, job: CampaignJob, result_dict: Dict[str, Any],
                elapsed: float, outcomes: Dict[int, JobOutcome],
                telemetry: Tuple[int, float, int] = (0, 0.0, 0)) -> None:
        if self.cache is not None:
            self.cache.put(job.experiment_id, job.params, job.seed, result_dict,
                           job.code_version)
        outcomes[index] = JobOutcome(
            job=job, status="ran",
            result=ExperimentResult.from_dict(result_dict), elapsed=elapsed,
            events=telemetry[0], sim_seconds=telemetry[1])
        self._notify("job_finished", outcomes[index])

    def _fail(self, index: int, job: CampaignJob, status: str, error: str,
              outcomes: Dict[int, JobOutcome]) -> None:
        outcomes[index] = JobOutcome(job=job, status=status, error=error)
        self._notify("job_finished", outcomes[index])

    def _run_inline(self, batch: Sequence[CampaignJob], pending: Sequence[int],
                    outcomes: Dict[int, JobOutcome]) -> None:
        for index in pending:
            job = batch[index]
            self._notify("job_started", job)
            started = time.monotonic()
            # Inline jobs already land in this process's TELEMETRY; the delta
            # is measured for the outcome only, never re-recorded.
            events0, sim0, _ = TELEMETRY.snapshot()
            try:
                result_dict = execute_job(job.experiment_id, job.params, job.seed)
            except Exception:  # noqa: BLE001 - report, don't crash the batch
                self._fail(index, job, "error", traceback.format_exc(), outcomes)
            else:
                events1, sim1, _ = TELEMETRY.snapshot()
                self._finish(index, job, result_dict, time.monotonic() - started,
                             outcomes, (events1 - events0, sim1 - sim0, 0))

    def _run_pool(self, batch: Sequence[CampaignJob], pending: Sequence[int],
                  outcomes: Dict[int, JobOutcome]) -> None:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)
        timed_out = False
        try:
            futures = {}
            for index in pending:
                futures[index] = pool.submit(
                    _timed_execute_job, batch[index].experiment_id,
                    batch[index].params, batch[index].seed)
                self._notify("job_started", batch[index])
            for index, future in futures.items():
                job = batch[index]
                if timed_out and not future.done():
                    # The batch is being aborted (all workers get terminated
                    # below); waiting another full timeout per remaining job
                    # would stall the campaign for N x timeout.
                    future.cancel()
                    self._fail(index, job, "timeout",
                               "batch aborted after an earlier job timeout", outcomes)
                    continue
                try:
                    elapsed, result_dict, telemetry = future.result(timeout=self.timeout)
                except concurrent.futures.TimeoutError:
                    # On Python 3.11+ this aliases builtin TimeoutError, so a
                    # job *raising* TimeoutError lands here too; a completed
                    # future means the exception came from the job itself.
                    if future.done():
                        self._fail(index, job, "error", traceback.format_exc(), outcomes)
                    else:
                        future.cancel()
                        timed_out = True
                        self._fail(index, job, "timeout",
                                   f"no result within {self.timeout}s", outcomes)
                except Exception:  # noqa: BLE001 - report, don't crash the batch
                    self._fail(index, job, "error", traceback.format_exc(), outcomes)
                else:
                    # The worker's accumulator dies with the pool; credit its
                    # totals to the parent so campaign-wide telemetry is
                    # complete regardless of --jobs.
                    TELEMETRY.record_remote(*telemetry)
                    self._finish(index, job, result_dict, elapsed, outcomes,
                                 telemetry)
        finally:
            if timed_out:
                # future.cancel() cannot stop an already-running task, and a
                # plain shutdown would join the hung worker; kill it so the
                # campaign returns when the timeout says it should.
                for process in getattr(pool, "_processes", {}).values():
                    process.terminate()
            pool.shutdown(wait=not timed_out, cancel_futures=True)

    # ------------------------------------------------------------------
    # Seed-replicated campaigns
    # ------------------------------------------------------------------
    def run_campaign(self, experiment_id: str, seeds: Sequence[int],
                     overrides: Optional[Mapping[str, Any]] = None,
                     fast: bool = True) -> CampaignOutcome:
        """Replicate one experiment over ``seeds`` and aggregate mean ± 95% CI."""
        if not seeds:
            raise ExperimentError("need at least one seed")
        spec = get_registry().get(experiment_id)
        params = spec.resolve_params(overrides, fast=fast)
        batch = [CampaignJob(experiment_id=experiment_id, params=params, seed=seed,
                             code_version=spec.source_digest)
                 for seed in seeds]
        outcomes = self.run_jobs(batch)
        replicas = {outcome.job.seed: outcome.result
                    for outcome in outcomes if outcome.ok}
        if not replicas:
            failures = "; ".join(f"{o.job.describe()}: {o.status}" for o in outcomes)
            raise ExperimentError(f"every job of {experiment_id} failed ({failures})")
        aggregate = aggregate_experiment_results(
            [replicas[seed] for seed in seeds if seed in replicas])
        return CampaignOutcome(
            experiment_id=experiment_id, params=params, seeds=list(seeds),
            aggregate=aggregate, replicas=replicas, outcomes=outcomes)
