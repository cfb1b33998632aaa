"""Tests for the ambient observability session and the obs CLI."""

from __future__ import annotations

import json
import re

import pytest

from repro.obs import cli
from repro.obs.cli import build_parser, main as obs_main
from repro.obs.metrics import NULL_METRICS
from repro.obs.session import ObsConfig, ObsSession, observe
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Session adoption
# ---------------------------------------------------------------------------

def assert_no_session_is_active():
    """A simulator built now is adopted by nothing, and a session may start."""
    sim = Simulator(seed=1)
    assert sim.metrics is NULL_METRICS
    assert not sim.tracer.enabled
    with observe() as session:
        pass
    assert session.simulators == []


def test_no_session_leaves_simulator_unobserved():
    assert_no_session_is_active()


def test_observe_adopts_simulators_created_inside():
    with observe(trace=True, metrics=True, capture=True,
                 max_trace_records=123) as session:
        first = Simulator(seed=1)
        second = Simulator(seed=2)
    assert session.simulators == [first, second]
    assert_no_session_is_active()
    for sim, store in zip((first, second), session.trace_stores):
        assert sim.tracer.enabled
        assert store.max_records == 123
        assert sim.metrics.enabled
        assert sim.metrics is not NULL_METRICS
    # timeline stores and metrics registries are per-simulator, the capture
    # is shared
    assert session.trace_stores[0] is not session.trace_stores[1]
    assert first.metrics is not second.metrics
    assert session.capture is not None


def test_observe_features_are_independent():
    with observe(metrics=True) as session:
        sim = Simulator(seed=1)
    assert session.capture is None
    assert session.trace_stores == [None]
    assert session.journeys == [None]
    # Live metrics are derived from trace records, so the tracer is on.
    assert sim.tracer.enabled
    assert sim.metrics.enabled


def test_sessions_do_not_nest():
    with observe(trace=True):
        with pytest.raises(RuntimeError, match="already active"):
            with observe(metrics=True):
                pass  # pragma: no cover
    assert_no_session_is_active()


def test_session_cleared_even_on_error():
    with pytest.raises(ValueError):
        with observe(trace=True):
            raise ValueError("boom")
    assert_no_session_is_active()


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _traced_session():
    with observe(trace=True, metrics=True) as session:
        for seed in (1, 2):
            sim = Simulator(seed=seed)
            sim.tracer.emit("node1.phy", "phy", "tx_start", kind="data",
                            bytes=100, duration=0.001)
            sim.tracer.emit("node1.phy", "phy", "tx_end", kind="data")
    return session


def test_timeline_merges_sims_with_prefixes(tmp_path):
    session = _traced_session()
    path = tmp_path / "timeline.json"
    count = session.export_timeline(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"sim0/node1", "sim1/node1"}
    assert len(events) == count


def test_single_traced_sim_gets_no_prefix(tmp_path):
    with observe(trace=True) as session:
        sim = Simulator(seed=1)
        sim.tracer.emit("node1.phy", "phy", "rx_end")
    path = tmp_path / "timeline.json"
    session.export_timeline(str(path))
    names = {e["args"]["name"] for e in json.loads(path.read_text())["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"node1"}


def test_metrics_document_and_export(tmp_path):
    session = _traced_session()
    document = session.metrics_document()
    assert [s["simulation"] for s in document["simulations"]] == [0, 1]
    counters = document["simulations"][0]["metrics"]["counters"]
    assert [c["name"] for c in counters] == ["channel.transmissions",
                                             "phy.tx_frames"]
    path = tmp_path / "metrics.json"
    session.export_metrics(str(path))
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(document, default=repr))


def test_export_capture_requires_capture_enabled(tmp_path):
    session = ObsSession(ObsConfig(trace=True))
    with pytest.raises(ValueError, match="capture"):
        session.export_capture(str(tmp_path / "frames.jsonl"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_requires_at_least_one_export(capsys):
    exit_code = obs_main(["run", "fig09", "--seed", "1"])
    assert exit_code == 2
    assert "nothing to observe" in capsys.readouterr().err


def test_cli_run_writes_all_exports(tmp_path, capsys):
    trace_path = tmp_path / "timeline.json"
    metrics_path = tmp_path / "metrics.json"
    capture_path = tmp_path / "frames.jsonl"
    out_path = tmp_path / "result.json"
    exit_code = obs_main([
        "run", "fig09", "--seed", "1",
        "--set", "flooding_intervals=(2.0,)", "--set", "duration=2.0",
        "--trace-out", str(trace_path),
        "--metrics-out", str(metrics_path),
        "--capture-out", str(capture_path),
        "--out", str(out_path),
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "simulator(s) observed" in output

    document = json.loads(trace_path.read_text())
    assert document["traceEvents"]
    assert {e["ph"] for e in document["traceEvents"]} <= {"M", "X", "i"}

    metrics = json.loads(metrics_path.read_text())
    assert metrics["simulations"]
    assert metrics["simulations"][0]["metrics"]["counters"]

    lines = capture_path.read_text().strip().splitlines()
    assert lines and all(json.loads(line)["dir"] in ("tx", "rx")
                         for line in lines)
    assert json.loads(out_path.read_text())


def test_cli_journey_export_flow_report_and_audit(tmp_path, capsys):
    journey_path = tmp_path / "journeys.json"
    trace_path = tmp_path / "timeline.json"
    exit_code = obs_main([
        "run", "fig09", "--seed", "1",
        "--set", "rates_mbps=(0.65,)",
        "--set", "flooding_intervals=(0.5,)", "--set", "duration=2.0",
        "--journey-out", str(journey_path),
        "--trace-out", str(trace_path),
        "--flow", "10.0.0.1,10.0.0.3",
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "packet journey(s)" in output
    assert "flow 10.0.0.1 -> 10.0.0.3" in output
    assert "conservation audit: balanced on every node" in output

    document = json.loads(journey_path.read_text())
    for sim in document["simulations"]:
        assert sim["audit"]["balanced"]
        assert sim["journeys"] and sim["flows"]
    # With journeys on, the timeline gains s/t/f flow-arrow events.
    trace = json.loads(trace_path.read_text())
    phases = {e["ph"] for e in trace["traceEvents"]}
    assert {"s", "t", "f"} <= phases


def test_cli_capture_overflow_note_names_only_real_flags(tmp_path, capsys,
                                                        monkeypatch):
    # The capture bound is not a CLI option; patch it low to make it overflow.
    real_observe = cli.observe
    monkeypatch.setattr(cli, "observe", lambda **kwargs: real_observe(
        **kwargs, max_capture_frames=5))
    exit_code = obs_main([
        "run", "fig09", "--seed", "1",
        "--set", "flooding_intervals=(2.0,)", "--set", "duration=2.0",
        "--capture-out", str(tmp_path / "frames.jsonl"),
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "capture: 5 frame(s)" in output
    run_parser = next(action for action in build_parser()._actions
                      if action.dest == "command").choices["run"]
    options = {option for action in run_parser._actions
               for option in action.option_strings}
    named = set(re.findall(r"--[a-z][a-z-]*", output))
    assert named <= options, named - options
    assert "dropped past the capture bound of 5 frames" in output


def test_cli_flow_requires_src_comma_dst(capsys):
    exit_code = obs_main(["run", "fig09", "--journey-out", "/dev/null",
                          "--flow", "nocomma"])
    assert exit_code == 2
    assert "--flow expects SRC,DST" in capsys.readouterr().err


def test_cli_unknown_experiment_is_an_error(capsys):
    exit_code = obs_main(["run", "does-not-exist", "--trace-out", "/dev/null"])
    assert exit_code == 2
    assert "error:" in capsys.readouterr().err
