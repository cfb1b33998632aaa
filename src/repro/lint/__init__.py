"""Determinism & hot-path contract checker for the repro codebase.

The reproduction rests on two contracts that the test suites only enforce at
runtime: every run is byte-identical per seed (in-process and across pool
workers), and the simulation hot path stays cheap (``__slots__`` layouts,
``enabled``-guarded instrumentation, memo caches).  ``repro.lint`` enforces
those contracts *statically*, file by file, before a single simulation runs:

* :mod:`repro.lint.rules` — the rule registry (RPR001–RPR006), one AST
  visitor per codebase invariant;
* :mod:`repro.lint.config` — the rule → module mapping, the one statement of
  the contract's scope;
* :mod:`repro.lint.engine` — file walking, suppression parsing and report
  assembly;
* :mod:`repro.lint.cli` — ``python -m repro.lint check|list-rules|explain``.

Suppress a finding inline with a justification::

    rng = random.Random(seed)  # lint: disable=RPR001 -- derived from the replica seed

A suppression without the ``-- justification`` tail is itself reported
(rule ``RPR000``), so the audit trail stays honest.
"""

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import LintReport, Suppression, Violation, check_paths, check_source
from repro.lint.rules import RULES, Rule

__all__ = [
    "DEFAULT_CONFIG",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "Suppression",
    "Violation",
    "check_paths",
    "check_source",
]
