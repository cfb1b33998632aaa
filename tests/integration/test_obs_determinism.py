"""Observability must be a pure observer: byte-identical results on or off.

Every instrument added by ``repro.obs`` (tracer adoption, metrics counters,
frame capture, journeys) only *reads* simulation state —
no RNG draws, no scheduling.  These tests enforce the contract the rest of
the suite assumes: the same seed produces byte-identical results whether an
observability session is active or not, in-process and when an observed
inline campaign is compared against unobserved pool workers.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.runner import CampaignRunner
from repro.core.policies import broadcast_aggregation, unicast_aggregation
from repro.experiments import (fig09_udp_flooding, mob01_flooding_mobility,
                               rt02_overhead_scaling)
from repro.experiments.scenarios import run_tcp_transfer, run_udp_saturation
from repro.obs.session import observe

TINY_FIG09 = {"rates_mbps": (0.65,), "flooding_intervals": (0.5,),
              "duration": 2.0}
TINY_RT02 = {"flow_counts": (2,), "speeds_mps": (2.0,),
             "routings": ("aodv",), "warmup": 1.0, "duration": 4.0,
             "include_no_aggregation": False}
TINY_MOB01 = {"speeds_mps": (2.0,), "node_count": 4, "duration": 2.0}


def _udp_signature(seed: int) -> str:
    result = run_udp_saturation(broadcast_aggregation(), duration=2.0,
                                flooding_interval=0.5, seed=seed)
    return repr((result.throughput_mbps, result.packets_received,
                 result.sink.bytes_received, result.sink.first_arrival,
                 result.sink.last_arrival))


def _tcp_signature(seed: int) -> str:
    result = run_tcp_transfer(unicast_aggregation(), file_bytes=20_000,
                              seed=seed)
    return repr((result.throughput_mbps, result.completion_time,
                 result.receiver.bytes_received, result.complete))


@pytest.mark.parametrize("signature", [_udp_signature, _tcp_signature],
                         ids=["udp_saturation", "tcp_transfer"])
def test_full_observability_is_byte_neutral(signature):
    plain = signature(7)
    with observe(trace=True, metrics=True, capture=True) as session:
        observed = signature(7)
    assert observed == plain
    # ...and the session really was watching, not silently disabled.
    assert session.simulators
    assert any(store.records for store in session.trace_stores)
    assert any(len(sim.metrics) for sim in session.simulators)
    assert len(session.capture) > 0


def test_tracer_overflow_does_not_change_results():
    # A tiny storage bound exercises the overflow path mid-run; dropping
    # records must not perturb the simulation itself.
    plain = _udp_signature(3)
    with observe(trace=True, max_trace_records=10) as session:
        bounded = _udp_signature(3)
    assert bounded == plain
    assert any(store.dropped > 0 for store in session.trace_stores)


def test_observed_experiment_sweep_is_byte_neutral():
    # fig09 creates several simulators per run; the session adopts each one.
    plain = repr(fig09_udp_flooding.run(**TINY_FIG09, seed=5).to_dict())
    with observe(trace=True, metrics=True, capture=True) as session:
        observed = repr(fig09_udp_flooding.run(**TINY_FIG09, seed=5).to_dict())
    assert observed == plain
    assert len(session.simulators) >= 2


@pytest.mark.parametrize("experiment,params", [
    (fig09_udp_flooding, TINY_FIG09),
    (rt02_overhead_scaling, TINY_RT02),
    (mob01_flooding_mobility, TINY_MOB01),
], ids=["fig09", "rt02", "mob01"])
def test_journey_tracing_is_byte_neutral_and_conserves_packets(experiment,
                                                               params):
    # Journeys are recorded in a side table keyed by packet uid — never on
    # the packet itself — so following every packet must not change a byte.
    plain = repr(experiment.run(**params, seed=11).to_dict())
    with observe(journey=True) as session:
        journeyed = repr(experiment.run(**params, seed=11).to_dict())
    assert journeyed == plain
    # The recorder really followed traffic...
    assert session.journey_count() > 0
    # ...and every followed packet is accounted for on every node of every
    # simulator: offered == delivered + transferred + Σ drops + in-flight.
    report = session.conservation_report()
    assert report["balanced"], report
    for entry in report["simulations"]:
        assert entry["audit"]["violations"] == []
        for node, ledger in entry["audit"]["nodes"].items():
            assert ledger["balanced"], (node, ledger)
            assert ledger["leaked"] == 0, (node, ledger)


def test_journey_cap_counts_overflow_without_perturbing_the_run():
    plain = repr(fig09_udp_flooding.run(**TINY_FIG09, seed=4).to_dict())
    with observe(journey=True, max_journeys=25) as session:
        capped = repr(fig09_udp_flooding.run(**TINY_FIG09, seed=4).to_dict())
    assert capped == plain
    recorders = [recorder for _, recorder in session.journey_recorders()]
    assert any(recorder.dropped > 0 for recorder in recorders)
    assert all(len(recorder) <= 25 for recorder in recorders)
    # Truncated recorders still audit cleanly over the journeys they kept.
    assert session.conservation_report()["balanced"]


#: Export written by each feature, and the features whose listeners it reads.
#: The timeline draws journey flow arrows, so it depends on journeys too.
_EXPORTS = {
    "metrics": ("export_metrics", {"metrics"}),
    "capture": ("export_capture", {"capture"}),
    "journey": ("export_journeys", {"journey"}),
    "trace": ("export_timeline", {"trace", "journey"}),
}


def _export_bytes(experiment, params, features, export, tmp_path):
    with observe(**{feature: True for feature in features}) as session:
        experiment.run(**params, seed=2)
    path = tmp_path / f"{export}-{'-'.join(sorted(features))}"
    getattr(session, export)(str(path))
    return path.read_bytes()


@pytest.mark.parametrize("experiment,params", [
    (fig09_udp_flooding, TINY_FIG09),
    (rt02_overhead_scaling, TINY_RT02),
], ids=["fig09", "rt02"])
@pytest.mark.parametrize("feature", sorted(_EXPORTS))
def test_each_export_is_independent_of_the_other_features(
        experiment, params, feature, tmp_path):
    # The exports share one record stream.  A listener must not depend on
    # which other listeners are attached: each export is byte-identical
    # whether the other features are on or off.
    export, needs = _EXPORTS[feature]
    everything = {"trace", "metrics", "capture", "journey"}
    alone = _export_bytes(experiment, params, needs, export, tmp_path)
    together = _export_bytes(experiment, params, everything, export, tmp_path)
    assert len(alone) > 100
    assert together == alone


def test_capture_of_a_repeated_run_is_byte_identical_in_one_process(tmp_path):
    # The capture prints every subframe's sequence number.  Each MAC numbers
    # its own subframes from 1, so a second run in the same process exports
    # exactly what the first did (and what a fresh process would).
    exports = []
    for attempt in range(2):
        with observe(capture=True) as session:
            fig09_udp_flooding.run(**TINY_FIG09, seed=1)
        path = tmp_path / f"capture-{attempt}.jsonl"
        session.export_capture(str(path))
        exports.append(path.read_bytes())
    assert exports[1] == exports[0]
    sent = [json.loads(line) for line in exports[0].splitlines()]
    sequences = {}
    for entry in sent:
        if entry["dir"] == "tx":
            for subframe in entry.get("subframes", ()):
                sequences.setdefault(subframe["src"], []).append(subframe["seq"])
    assert len(sequences) > 1
    assert all(min(numbers) == 1 for numbers in sequences.values())


def test_stored_observations_hold_no_simulation_objects():
    # Records carry packets, frames and aggregates to the listeners; what a
    # listener keeps must not pin them (retained frames cost memory and GC).
    scalars = (str, int, float, bool, type(None))
    with observe(trace=True, metrics=True, capture=True,
                 journey=True) as session:
        rt02_overhead_scaling.run(**TINY_RT02, seed=3)
    stored = [value for store in session.trace_stores
              for record in store.records for value in record.fields.values()]
    stored += [value for _, recorder in session.journey_recorders()
               for journey in recorder.journeys for event in journey.events
               for value in (event.fields or {}).values()]
    assert stored
    assert all(isinstance(value, scalars) for value in stored)
    for entry in session.capture.entries:
        json.dumps(entry)  # plain data only: no ``default=`` fallback needed


def test_observed_inline_campaign_matches_unobserved_pool_workers():
    # Inline jobs run in this process and get adopted by the active session;
    # pool workers run unobserved in fresh processes.  Both must produce the
    # same bytes, or observing a campaign would invalidate its cache.
    with observe(trace=True, metrics=True, capture=True):
        inline = CampaignRunner(jobs=1).run_campaign(
            "fig09", seeds=[1, 2], overrides=TINY_FIG09)
    pooled = CampaignRunner(jobs=2).run_campaign(
        "fig09", seeds=[1, 2], overrides=TINY_FIG09)
    assert inline.replicas[1].to_dict() == pooled.replicas[1].to_dict()
    assert inline.replicas[2].to_dict() == pooled.replicas[2].to_dict()
    assert inline.aggregate.to_dict() == pooled.aggregate.to_dict()
