"""Rule → module mapping for :mod:`repro.lint`.

Each rule carries two path lists, matched with :func:`fnmatch.fnmatch`
against the file's path *relative to the* ``repro`` *package root* (so the
same config works whether the checker is pointed at ``src/repro``, a single
file, or a checkout-relative path):

* ``paths`` — the modules the rule applies to (empty ⇒ everywhere);
* ``allow`` — modules exempt from the rule even when ``paths`` matches
  (e.g. ``sim/randomness.py`` is the one sanctioned home of raw
  ``random.Random`` construction).

:data:`DEFAULT_CONFIG` below *is* the project contract, stated once: every
``python -m repro.lint check`` run uses it on every interpreter, and
widening a rule's scope or allowlist is an edit to this module.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List

#: Modules whose event ordering, packet contents or hashing feed the
#: byte-determinism contract.  Runner plumbing (campaign), the observability
#: harness (obs) and pure reporting (stats) are not on that path.
DETERMINISTIC_MODULES = [
    "sim/*", "phy/*", "mac/*", "channel/*", "net/*", "core/*",
    "apps/*", "transport/*", "mobility/*", "topology/*", "node/*",
    "experiments/*",
]

#: Modules on the per-event hot path, where ``__slots__`` layouts are
#: mandatory (RPR004).
HOT_PATH_MODULES = ["sim/*", "phy/*", "mac/*", "channel/*"]

#: Modules that report events through the tracer, every call of which must
#: sit behind an ``enabled`` guard (RPR005).
INSTRUMENTED_MODULES = HOT_PATH_MODULES + ["net/*", "transport/*", "apps/*"]

#: Method names that emit, schedule or hash — iteration order flowing into
#: one of these must be deterministic (RPR003's sink heuristic).
ORDER_SINKS = [
    "schedule", "schedule_at", "push", "send", "broadcast", "emit",
    "enqueue", "enqueue_broadcast", "enqueue_unicast", "transmit",
    "forward", "deliver", "update", "record", "hash", "sha256", "md5",
]

#: ``receiver.method`` specs for instrumentation emitters that must sit
#: behind an ``.enabled`` guard (RPR005): the tracer is the one channel.  A
#: leading underscore on the receiver at the call site (``self._tracer.emit``)
#: matches the bare spec.
GUARDED_INSTRUMENTATION_CALLS = ["tracer.emit"]

DEFAULT_CONFIG: Dict[str, Dict[str, List[str]]] = {
    "RPR001": {
        "paths": [],
        "allow": ["sim/randomness.py", "lint/*"],
    },
    "RPR002": {
        "paths": [],
        "allow": ["obs/*", "campaign/*", "lint/*"],
    },
    "RPR003": {
        "paths": list(DETERMINISTIC_MODULES),
        "allow": [],
        "sinks": list(ORDER_SINKS),
    },
    "RPR004": {
        "paths": list(HOT_PATH_MODULES),
        "allow": [],
    },
    "RPR005": {
        "paths": list(INSTRUMENTED_MODULES),
        "allow": [],
        "guarded_calls": list(GUARDED_INSTRUMENTATION_CALLS),
    },
    "RPR006": {
        "paths": [],
        "allow": ["lint/*"],
    },
}


@dataclass
class LintConfig:
    """Resolved per-rule path scoping."""

    rules: Dict[str, Dict[str, List[str]]] = field(
        default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG))

    def rule_options(self, rule_id: str) -> Dict[str, List[str]]:
        """The option mapping for ``rule_id`` (empty when unconfigured)."""
        return self.rules.get(rule_id, {})

    def applies(self, rule_id: str, rel_path: str) -> bool:
        """True when ``rule_id`` should run against ``rel_path``.

        ``rel_path`` is POSIX-style and relative to the ``repro`` package
        root (see :func:`repro.lint.engine.relative_to_package`).
        """
        options = self.rule_options(rule_id)
        scoped = options.get("paths", [])
        if scoped and not any(fnmatch(rel_path, pattern) for pattern in scoped):
            return False
        return not any(fnmatch(rel_path, pattern)
                       for pattern in options.get("allow", []))

    def sinks(self, rule_id: str) -> frozenset:
        """Configured order-sink method names for ``rule_id``."""
        return frozenset(self.rule_options(rule_id).get("sinks", ORDER_SINKS))

    def guarded_calls(self, rule_id: str) -> frozenset:
        """Configured ``receiver.method`` guard specs for ``rule_id``."""
        return frozenset(self.rule_options(rule_id).get(
            "guarded_calls", GUARDED_INSTRUMENTATION_CALLS))

