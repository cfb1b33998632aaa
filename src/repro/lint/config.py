"""Rule → module mapping for :mod:`repro.lint`.

Each rule carries two path lists, matched with :func:`fnmatch.fnmatch`
against the file's path *relative to the* ``repro`` *package root* (so the
same config works whether the checker is pointed at ``src/repro``, a single
file, or a checkout-relative path):

* ``paths`` — the modules the rule applies to (empty ⇒ everywhere);
* ``allow`` — modules exempt from the rule even when ``paths`` matches
  (e.g. ``sim/randomness.py`` is the one sanctioned home of raw
  ``random.Random`` construction).

The defaults below *are* the project contract; a ``lint.toml`` next to the
checked tree (or passed via ``--config``) can override any rule's lists
using the same shape::

    [lint.RPR002]
    allow = ["obs/*", "campaign/*"]

``lint.toml`` is parsed with :mod:`tomllib` (stdlib, 3.11+); when the file
is absent the embedded defaults apply, so the checker has no set-up step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional

try:  # pragma: no cover - stdlib on 3.11+, gate kept for older interpreters
    import tomllib
except ModuleNotFoundError:  # pragma: no cover
    tomllib = None  # type: ignore[assignment]

from repro.errors import ConfigurationError

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


def load_config(path: Optional[Path] = None,
                search_from: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``lint.toml`` or the defaults.

    ``path`` names an explicit config file (an error if unreadable).  Without
    one, ``lint.toml`` is searched for upward from ``search_from`` (typically
    the checked tree); the embedded defaults apply when nothing is found.
    """
    explicit = path is not None
    if path is None and search_from is not None:
        probe = search_from.resolve()
        if probe.is_file():
            probe = probe.parent
        for candidate_dir in (probe, *probe.parents):
            candidate = candidate_dir / "lint.toml"
            if candidate.is_file():
                path = candidate
                break
    config = LintConfig()
    if path is None:
        return config
    if tomllib is None:  # pragma: no cover - tomllib is stdlib on 3.11+
        if explicit:
            raise ConfigurationError(
                f"cannot parse {path}: tomllib unavailable on this interpreter")
        # A discovered lint.toml mirrors the embedded defaults by contract
        # (tests/lint/test_cli.py pins that), so pre-3.11 interpreters can
        # safely fall back to the defaults instead of failing the gate.
        return config
    try:
        data = tomllib.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read lint config {path}: {exc}") from exc
    for rule_id, options in data.get("lint", {}).items():
        if not isinstance(options, dict):
            raise ConfigurationError(
                f"lint config section [lint.{rule_id}] must be a table")
        merged = config.rules.setdefault(rule_id, {"paths": [], "allow": []})
        for key, value in options.items():
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ConfigurationError(
                    f"lint config option {rule_id}.{key} must be a list of strings")
            merged[key] = list(value)
    return config
