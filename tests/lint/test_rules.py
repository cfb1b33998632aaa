"""Fixture-snippet tests for each lint rule: violating, clean and suppressed.

Each snippet is checked through :func:`repro.lint.engine.check_source` at a
package-relative path chosen so the rule under test is in scope, exactly as
the CLI would see an on-disk file there.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import LintConfig, check_source
from repro.lint.engine import META_RULE_ID


def lint(source: str, rel_path: str, config=None):
    return check_source(textwrap.dedent(source), rel_path,
                        config if config is not None else LintConfig())


def rule_ids(report):
    return [v.rule_id for v in report.violations]


# ----------------------------------------------------------------------
# RPR001 — randomness
# ----------------------------------------------------------------------
class TestRPR001:
    def test_flags_unseeded_random_constructor(self):
        report = lint(
            """
            import random

            def jitter():
                return random.Random().random()
            """,
            "net/discovery.py")
        # The Random() construction is the finding; the chained .random()
        # call on its result is the same hazard, not a second one.
        assert rule_ids(report).count("RPR001") == 1

    def test_flags_module_level_function(self):
        report = lint(
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
            "apps/traffic.py")
        assert "RPR001" in rule_ids(report)

    def test_flags_from_import_and_urandom_and_uuid(self):
        report = lint(
            """
            import os
            import uuid
            from random import randint

            def token():
                return uuid.uuid4(), os.urandom(8), randint(0, 3)
            """,
            "core/aggregator.py")
        ids = rule_ids(report)
        assert ids.count("RPR001") == 3  # random from-import, uuid4(), urandom()

    def test_clean_when_using_streams(self):
        report = lint(
            """
            def backoff(sim):
                rng = sim.random.stream("mac.backoff")
                return rng.randrange(16)
            """,
            "mac/backoff.py")
        assert report.ok

    def test_random_import_for_typing_is_clean(self):
        report = lint(
            """
            import random

            def seed_stream(rng: random.Random) -> float:
                return rng.random()
            """,
            "mac/backoff.py")
        assert report.ok

    def test_allowlisted_module_is_exempt(self):
        report = lint(
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
            "sim/randomness.py")
        assert report.ok

    def test_suppressed_with_justification(self):
        report = lint(
            """
            import random

            def sample(seed):
                return random.Random(seed)  # lint: disable=RPR001 -- derived from the replica seed
            """,
            "experiments/sweep.py")
        assert report.ok
        assert len(report.suppressions) == 1
        assert report.suppressions[0].justified

    def test_suppression_without_justification_raises_meta_rule(self):
        report = lint(
            """
            import random

            def sample(seed):
                return random.Random(seed)  # lint: disable=RPR001
            """,
            "experiments/sweep.py")
        assert rule_ids(report) == [META_RULE_ID]
        assert not report.suppressions[0].justified


# ----------------------------------------------------------------------
# RPR002 — wall clock / environment
# ----------------------------------------------------------------------
class TestRPR002:
    def test_flags_time_time(self):
        report = lint(
            """
            import time

            def stamp(sim):
                return time.time()
            """,
            "sim/trace.py")
        assert "RPR002" in rule_ids(report)

    def test_flags_datetime_now_and_environ(self):
        report = lint(
            """
            import datetime
            import os

            def snapshot():
                return datetime.datetime.now(), os.environ["HOME"], os.getenv("SEED")
            """,
            "net/routing.py")
        assert rule_ids(report).count("RPR002") == 3

    def test_flags_from_time_import(self):
        report = lint(
            """
            from time import perf_counter, sleep

            def measure():
                return perf_counter()
            """,
            "phy/device.py")
        # the from-import itself is the finding; sleep is not a clock read
        assert rule_ids(report).count("RPR002") == 1

    def test_clean_in_allowlisted_obs_module(self):
        report = lint(
            """
            import time

            def wall():
                return time.time()
            """,
            "obs/progress.py")
        assert report.ok

    def test_sim_now_is_clean(self):
        report = lint(
            """
            def stamp(sim):
                return sim.now
            """,
            "sim/timer.py")
        assert report.ok

    def test_suppressed_with_justification(self):
        report = lint(
            """
            import time

            def log_line(sim):
                return time.time()  # lint: disable=RPR002 -- human-facing log timestamp, not simulation state
            """,
            "net/routing.py")
        assert report.ok
        assert len(report.suppressions) == 1


# ----------------------------------------------------------------------
# RPR003 — unsorted set/dict iteration feeding sinks
# ----------------------------------------------------------------------
class TestRPR003:
    def test_flags_set_literal_iteration(self):
        report = lint(
            """
            def flood(sim, neighbors):
                pending = {n for n in neighbors}
                for n in pending:
                    sim.schedule(0.0, n.receive)
            """,
            "net/flooding.py")
        assert "RPR003" in rule_ids(report)

    def test_flags_self_attr_set_iteration(self):
        report = lint(
            """
            class Router:
                def __init__(self):
                    self.peers = set()

                def advertise(self, mac):
                    for peer in self.peers:
                        mac.send(peer)
            """,
            "net/routing.py")
        assert "RPR003" in rule_ids(report)

    def test_flags_dict_keys_feeding_sink(self):
        report = lint(
            """
            class Table:
                def __init__(self):
                    self.routes = {}

                def broadcast_all(self, mac):
                    for dst in self.routes.keys():
                        mac.broadcast(dst)
            """,
            "net/routing.py")
        assert "RPR003" in rule_ids(report)

    def test_sorted_wrapping_is_clean(self):
        report = lint(
            """
            class Router:
                def __init__(self):
                    self.peers = set()

                def advertise(self, mac):
                    for peer in sorted(self.peers):
                        mac.send(peer)
                    for dst in list(sorted(self.peers)):
                        mac.broadcast(dst)
            """,
            "net/routing.py")
        assert report.ok

    def test_dict_view_without_sink_is_clean(self):
        report = lint(
            """
            def total(counts):
                acc = 0.0
                for value in counts.values():
                    acc += value
                return acc
            """,
            "net/stats_helpers.py")
        assert report.ok

    def test_out_of_scope_module_is_clean(self):
        report = lint(
            """
            def render(rows):
                for row in {r for r in rows}:
                    print(row)
            """,
            "obs/report.py")
        assert report.ok

    def test_suppressed_with_justification(self):
        report = lint(
            """
            def drain(sim, items):
                for item in set(items):  # lint: disable=RPR003 -- order-insensitive teardown, results are summed
                    sim.schedule(0.0, item.close)
            """,
            "net/teardown.py")
        assert report.ok
        assert len(report.suppressions) == 1


# ----------------------------------------------------------------------
# RPR004 — __slots__ in hot-path modules
# ----------------------------------------------------------------------
class TestRPR004:
    def test_flags_class_without_slots(self):
        report = lint(
            """
            class Frame:
                def __init__(self, size):
                    self.size = size
            """,
            "phy/frame_extra.py")
        assert "RPR004" in rule_ids(report)

    def test_flags_incomplete_slots(self):
        report = lint(
            """
            class Frame:
                __slots__ = ("size",)

                def __init__(self, size):
                    self.size = size

                def arm(self):
                    self.deadline = 0.0
            """,
            "mac/extra.py")
        violations = [v for v in report.violations if v.rule_id == "RPR004"]
        assert len(violations) == 1
        assert "deadline" in violations[0].message

    def test_flags_dataclass_without_slots_true(self):
        report = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class Config:
                rate: float = 1.0
            """,
            "channel/extra.py")
        assert "RPR004" in rule_ids(report)

    def test_clean_slotted_class_and_slots_dataclass(self):
        report = lint(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Config:
                rate: float = 1.0

            class Frame:
                __slots__ = ("size", "deadline")

                def __init__(self, size):
                    self.size = size
                    self.deadline = 0.0
            """,
            "phy/extra.py")
        assert report.ok

    def test_enum_protocol_and_exception_are_exempt(self):
        report = lint(
            """
            import enum
            from typing import Protocol

            class Kind(enum.Enum):
                DATA = "data"

                def __init__(self, label):
                    self.label = label

            class Listener(Protocol):
                def on_frame(self) -> None: ...

            class PhyError(Exception):
                pass
            """,
            "phy/kinds.py")
        assert report.ok

    def test_base_class_slots_resolved_within_module(self):
        report = lint(
            """
            class Base:
                __slots__ = ("sim",)

                def __init__(self, sim):
                    self.sim = sim

            class Derived(Base):
                __slots__ = ("rate",)

                def __init__(self, sim, rate):
                    super().__init__(sim)
                    self.rate = rate
            """,
            "sim/extra.py")
        assert report.ok

    def test_non_hot_path_module_is_clean(self):
        report = lint(
            """
            class Report:
                def __init__(self):
                    self.rows = []
            """,
            "obs/report.py")
        assert report.ok

    def test_suppressed_with_justification(self):
        report = lint(
            """
            class Adapter:  # lint: disable=RPR004 -- wraps a third-party object that needs __dict__
                def __init__(self, inner):
                    self.inner = inner
            """,
            "sim/adapter.py")
        assert report.ok
        assert len(report.suppressions) == 1


# ----------------------------------------------------------------------
# RPR005 — guarded instrumentation
# ----------------------------------------------------------------------
class TestRPR005:
    def test_flags_unguarded_tracer_emit(self):
        report = lint(
            """
            def on_send(self, frame):
                self.sim.tracer.emit(self.name, "mac", "send", size=frame.size)
            """,
            "mac/extra.py")
        assert "RPR005" in rule_ids(report)

    @staticmethod
    def _emitters(*specs):
        """A config whose RPR005 emitter list is ``specs``."""
        config = LintConfig()
        config.rules["RPR005"]["guarded_calls"] = list(specs)
        return config

    def test_flags_unguarded_metrics_inc(self):
        # Not a default emitter; configured, it matches through an
        # underscored receiver.
        report = lint(
            """
            def on_drop(self):
                self._metrics.inc("mac.queue_drops", node=self.name)
            """,
            "mac/extra.py", config=self._emitters("metrics.inc"))
        assert "RPR005" in rule_ids(report)

    def test_flags_unguarded_journey_record(self):
        report = lint(
            """
            def on_deliver(self, subframe):
                self._journey.record(self.sim.now, self.name, "mac",
                                     "deliver", subframe.packet)
            """,
            "mac/extra.py", config=self._emitters("journey.record"))
        assert "RPR005" in rule_ids(report)

    def test_flags_unguarded_journey_begin(self):
        report = lint(
            """
            def send(self, packet):
                journey = self.sim.journey
                journey.begin(self.sim.now, self.name, "net", packet)
            """,
            "mac/extra.py", config=self._emitters("journey.begin"))
        assert "RPR005" in rule_ids(report)

    def test_the_tracer_is_the_only_default_emitter(self):
        assert LintConfig().guarded_calls("RPR005") == frozenset({"tracer.emit"})
        report = lint(
            """
            def on_drop(self):
                self._metrics.inc("mac.queue_drops", node=self.name)
            """,
            "mac/extra.py")
        assert report.ok

    @pytest.mark.parametrize("rel_path", ["net/extra.py", "transport/extra.py",
                                          "apps/extra.py"])
    def test_upper_layers_are_in_scope(self, rel_path):
        report = lint(
            """
            def on_neighbor(self, ip):
                self.sim.tracer.emit(self.name, "discovery", "up", ip=str(ip))
            """,
            rel_path)
        assert "RPR005" in rule_ids(report)

    def test_guarded_calls_are_clean(self):
        report = lint(
            """
            def on_send(self, frame):
                tracer = self.sim.tracer
                if tracer.enabled:
                    tracer.emit(self.name, "mac", "send", size=frame.size)
            """,
            "mac/extra.py")
        assert report.ok

    def test_guarded_calls_list_is_configurable(self):
        from repro.lint.config import LintConfig

        config = LintConfig()
        config.rules["RPR005"]["guarded_calls"] = ["audit.note"]
        report = lint(
            """
            def on_send(self, frame):
                self.sim.tracer.emit(self.name, "mac", "send")
                self._audit.note(frame)
            """,
            "mac/extra.py", config=config)
        findings = [v for v in report.violations if v.rule_id == "RPR005"]
        assert len(findings) == 1
        assert "audit" in findings[0].message

    def test_early_return_guard_is_clean(self):
        report = lint(
            """
            def emit_sample(self):
                if not self.enabled:
                    return
                self._metrics.inc("sample")
            """,
            "phy/extra.py")
        assert report.ok

    def test_non_hot_path_module_is_clean(self):
        report = lint(
            """
            def summarize(tracer):
                tracer.record("done")
            """,
            "obs/report.py")
        assert report.ok

    def test_suppressed_with_justification(self):
        report = lint(
            """
            def on_fatal(self):
                self.sim.tracer.emit(self.name, "mac", "fatal")  # lint: disable=RPR005 -- error path, executes at most once per run
            """,
            "mac/extra.py")
        assert report.ok
        assert len(report.suppressions) == 1


# ----------------------------------------------------------------------
# RPR006 — mutable default arguments
# ----------------------------------------------------------------------
class TestRPR006:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()",
                                         "deque()", "defaultdict(list)"])
    def test_flags_mutable_defaults(self, default):
        report = lint(
            f"""
            from collections import defaultdict, deque

            def callback(event, acc={default}):
                acc.append(event)
            """,
            "net/handlers.py")
        assert "RPR006" in rule_ids(report)

    def test_flags_keyword_only_and_lambda_defaults(self):
        report = lint(
            """
            def schedule(sim, *, listeners=[]):
                return listeners

            late = lambda acc={}: acc
            """,
            "sim/extra_hooks.py")
        assert rule_ids(report).count("RPR006") == 2

    def test_none_default_is_clean(self):
        report = lint(
            """
            def callback(event, acc=None):
                if acc is None:
                    acc = []
                acc.append(event)
            """,
            "net/handlers.py")
        assert report.ok

    def test_immutable_defaults_are_clean(self):
        report = lint(
            """
            def configure(rate=1.0, name="mac", flags=(), frozen=frozenset()):
                return rate, name, flags, frozen
            """,
            "net/handlers.py")
        assert report.ok

    def test_suppressed_with_justification(self):
        report = lint(
            """
            def memoized(cache={}):  # lint: disable=RPR006 -- intentional cross-call memo table
                return cache
            """,
            "net/handlers.py")
        assert report.ok
        assert len(report.suppressions) == 1


# ----------------------------------------------------------------------
# Engine behaviour shared across rules
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_is_reported_not_raised(self):
        report = lint("def broken(:\n", "net/broken.py")
        assert not report.ok
        assert report.errors and "syntax error" in report.errors[0]

    def test_suppression_comment_only_hides_named_rule(self):
        report = lint(
            """
            import random

            def sample():
                return random.random()  # lint: disable=RPR002 -- wrong rule named
            """,
            "net/sample.py")
        # RPR001 still fires; the RPR002 suppression matched nothing.
        assert "RPR001" in rule_ids(report)
        assert not report.suppressions

    def test_multi_rule_suppression(self):
        report = lint(
            """
            import random, time

            def sample():
                return random.random(), time.time()  # lint: disable=RPR001,RPR002 -- fixture exercising multi-rule suppression
            """,
            "net/sample.py")
        assert report.ok
        assert {s.rule_id for s in report.suppressions} == {"RPR001", "RPR002"}

    def test_report_dict_counts(self):
        report = lint(
            """
            import random

            def sample():
                return random.random()
            """,
            "net/sample.py")
        payload = report.as_dict()
        assert payload["ok"] is False
        assert payload["counts"]["violations"] == 1
        assert payload["counts"]["by_rule"] == {"RPR001": 1}
