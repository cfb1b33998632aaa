"""The benchmark's workloads: job lists built from a seed, and output checks.

Every job calls a public entry point of the repository: the scenario
runners in :mod:`repro.experiments.scenarios` that the paper figures are
made of, or an experiment's ``run()`` through
:func:`repro.campaign.runner.execute_job`, the function a
``python -m repro.campaign`` worker calls.  Jobs pass only parameters that
describe the workload; implementation switches (``spatial_index``,
``link_budget_memo``, observability) keep their defaults.

A job's output is checked, and the model values it reports (application
goodput, delivery ratio, routing-control fraction) are collected for the
model metrics.  Those are simulated quantities, so they repeat exactly for
a seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.campaign.registry import get_registry
from repro.campaign.runner import execute_job
from repro.core.policies import broadcast_aggregation, no_aggregation, unicast_aggregation
from repro.experiments.scenarios import run_star_tcp, run_tcp_transfer, run_udp_saturation

POLICIES = {"NA": no_aggregation, "UA": unicast_aggregation, "BA": broadcast_aggregation}

#: The lowest and highest of the paper's four rates (Figures 8, 11, 12).
PAPER_RATES_MBPS = (0.65, 2.6)
#: Figure 9's flooding intervals, as its campaign fast sweep picks them.
FLOOD_INTERVALS_S = (0.5, 2.0)
#: Figure 9's saturating flow: 2 hops at the base rate for the default 20 s.
FLOOD_RATE_MBPS = 0.65
FLOOD_DURATION_S = 20.0


@dataclass
class JobOutput:
    """Model values one job reports, plus the checks they failed."""

    goodput_mbps: List[float] = field(default_factory=list)
    delivery: List[float] = field(default_factory=list)
    ctrl_frac: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Every simulated number the job produced, for exact comparisons.
    values: List[Tuple[str, float]] = field(default_factory=list)

    def ratio(self, label: str, value: float) -> float:
        """Record a ratio; it must lie in [0, 1]."""
        self.values.append((label, value))
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            self.failures.append(f"{label} = {value!r} is outside [0, 1]")
        return value

    def goodput(self, label: str, value: float, rate_mbps: float) -> None:
        """Record a goodput; it must be finite and within the job's PHY rate."""
        self.values.append((label, value))
        self.goodput_mbps.append(value)
        if not (math.isfinite(value) and 0.0 <= value <= rate_mbps):
            self.failures.append(
                f"{label} = {value!r} Mbit/s is not within [0, {rate_mbps}] Mbit/s")


@dataclass(frozen=True)
class Job:
    """One call into the repository, with the parameters that define it."""

    job_id: str
    runner: Callable[..., JobOutput]
    kwargs: Tuple[Tuple[str, Any], ...]

    def run(self) -> JobOutput:
        return self.runner(**dict(self.kwargs))


def derive_seed(workload: str, family: str, seed: int) -> int:
    """Deterministic simulator seed for one experiment family of a workload."""
    digest = hashlib.sha256(f"{workload}/{family}/{seed}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % 1_000_000


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def tcp_transfer(policy: str, hops: int, rate_mbps: float, seed: int) -> JobOutput:
    """A 0.2 MB file transfer over a chain (Figures 8, 11, 12)."""
    outcome = run_tcp_transfer(POLICIES[policy](), hops=hops, rate_mbps=rate_mbps,
                               seed=seed)
    output = JobOutput()
    if not outcome.complete:
        output.failures.append("TCP transfer incomplete at the horizon")
    output.goodput("throughput", outcome.throughput_mbps, rate_mbps)
    output.values.append(("completion_time", outcome.completion_time or -1.0))
    return output


def star_tcp(policy: str, rate_mbps: float, seed: int) -> JobOutput:
    """The two-session star of Figure 12."""
    outcome = run_star_tcp(POLICIES[policy](), rate_mbps=rate_mbps, seed=seed)
    output = JobOutput()
    for index, receiver in enumerate(outcome.receivers):
        if not receiver.complete:
            output.failures.append(f"star session {index} incomplete at the horizon")
    for index, throughput in enumerate(outcome.session_throughputs_mbps):
        output.goodput(f"session{index}", throughput, rate_mbps)
    return output


def udp_flooding(policy: str, flooding_interval: float, seed: int) -> JobOutput:
    """Saturating 2-hop UDP with per-node flooding (Figure 9, Table 2).

    The flood delivery ratio is defined as ``mob01`` and ``city01`` define
    it: broadcasts received over all nodes / (sent x (N - 1)).
    """
    outcome = run_udp_saturation(POLICIES[policy](), hops=2, rate_mbps=FLOOD_RATE_MBPS,
                                 duration=FLOOD_DURATION_S,
                                 flooding_interval=flooding_interval, seed=seed)
    output = JobOutput()
    output.goodput("udp throughput", outcome.throughput_mbps, FLOOD_RATE_MBPS)
    nodes = outcome.network.nodes
    sent = sum(flooder.packets_sent for flooder in outcome.flooders)
    received = sum(node.network.stats.delivered_broadcast for node in nodes)
    potential = sent * (len(nodes) - 1)
    if potential == 0:
        output.failures.append("no flood packet was sent")
    else:
        output.delivery.append(output.ratio("flood delivery", received / potential))
    return output


def experiment(experiment_id: str, params: Tuple[Tuple[str, Any], ...],
               seed: int) -> JobOutput:
    """One experiment ``run()``, executed as a campaign worker executes it.

    Series labelled ``... delivery`` and ``... ctrl frac`` feed the model
    metrics, ``... udp Mbps`` is a goodput bounded by the run's PHY rate,
    and every other series ending in ``frac`` must be a ratio.
    """
    params_dict = dict(params)
    result = execute_job(experiment_id, params_dict, seed)
    output = JobOutput()
    for label, series in result["series"].items():
        for x, y in zip(series["x_values"], series["y_values"]):
            point = f"{label} @{x:g}"
            if label.endswith(" delivery"):
                output.delivery.append(output.ratio(point, y))
            elif label.endswith(" ctrl frac"):
                output.ctrl_frac.append(output.ratio(point, y))
            elif label.endswith(" udp Mbps"):
                output.goodput(point, y, params_dict["rate_mbps"])
            elif label.endswith("frac"):
                output.ratio(point, y)
            else:
                output.values.append((point, y))
    output.values.extend(sorted(result["metrics"].items()))
    return output


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def experiment_job(job_id: str, experiment_id: str, seed: int, fast: bool,
                   **overrides: Any) -> Job:
    """A job running an experiment with its parameters resolved as a campaign does.

    ``fast`` starts from the experiment's campaign sweep (``FAST_PARAMS``)
    instead of its ``run()`` defaults; ``overrides`` go on top.
    """
    params = get_registry().get(experiment_id).resolve_params(overrides, fast=fast)
    return Job(job_id, experiment, (("experiment_id", experiment_id),
                                    ("params", tuple(sorted(params.items()))),
                                    ("seed", seed)))


def paper_chains(seed: int) -> List[Job]:
    """Section 5: TCP over 2-4 hop chains, the star, and UDP under flooding."""
    tcp_seed = derive_seed("paper_chains", "tcp", seed)
    star_seed = derive_seed("paper_chains", "star", seed)
    flood_seed = derive_seed("paper_chains", "flood", seed)
    jobs = [Job(f"tcp/{policy}/{hops}hop/{rate}", tcp_transfer,
                (("policy", policy), ("hops", hops), ("rate_mbps", rate),
                 ("seed", tcp_seed)))
            for policy in POLICIES for hops in (2, 3, 4) for rate in PAPER_RATES_MBPS]
    jobs += [Job(f"star/{policy}/{rate}", star_tcp,
                 (("policy", policy), ("rate_mbps", rate), ("seed", star_seed)))
             for policy in ("UA", "BA") for rate in PAPER_RATES_MBPS]
    jobs += [Job(f"flood/{policy}/{interval}s", udp_flooding,
                 (("policy", policy), ("flooding_interval", interval),
                  ("seed", flood_seed)))
             for policy in ("NA", "BA") for interval in FLOOD_INTERVALS_S]
    return jobs


def city_lattice(seed: int) -> List[Job]:
    """``city01`` at its campaign sweep: N=2,000, flooding and AODV, 100 flows."""
    city_seed = derive_seed("city_lattice", "city01", seed)
    return [experiment_job(f"city01/{protocol}", "city01", city_seed,
                           fast=True, protocols=(protocol,))
            for protocol in ("flooding", "aodv")]


def mobile_mesh(seed: int) -> List[Job]:
    """``rt02`` at its defaults, one job per routing mode, plus ``mob01``."""
    rt02_seed = derive_seed("mobile_mesh", "rt02", seed)
    mob01_seed = derive_seed("mobile_mesh", "mob01", seed)
    jobs = [experiment_job(f"rt02/{routing}", "rt02", rt02_seed,
                           fast=False, routings=(routing,))
            for routing in ("static", "dsdv", "aodv")]
    jobs.append(experiment_job("mob01", "mob01", mob01_seed, fast=False))
    return jobs


WORKLOADS: Dict[str, Callable[[int], List[Job]]] = {
    "paper_chains": paper_chains,
    "city_lattice": city_lattice,
    "mobile_mesh": mobile_mesh,
}


def build_jobs(workload: str, seed: int) -> List[Job]:
    """The job list of ``workload`` for ``seed``."""
    return WORKLOADS[workload](seed)
