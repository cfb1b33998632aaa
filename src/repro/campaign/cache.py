"""On-disk JSON result cache keyed by (experiment id, params, seed, code).

Each cache entry is one JSON file holding the serialized
:class:`~repro.stats.results.ExperimentResult` plus the job coordinates that
produced it, so a cache directory doubles as a browsable archive of raw
per-seed results.  Keys are SHA-256 digests of the canonical (sorted-keys)
JSON encoding of the coordinates, which makes re-runs incremental: only jobs
whose (experiment, params, seed) triple has never completed are executed.

The optional ``code_version`` coordinate (the digest of the whole ``repro``
package's source, see :func:`repro.campaign.registry.package_source_digest`)
versions entries against the code that produced them: editing any simulator
module changes the digest, orphaning every cache entry written before the
edit, so stale results are never served across code changes.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Mapping, Optional


def job_key(experiment_id: str, params: Mapping[str, Any], seed: int,
            code_version: str = "") -> str:
    """Deterministic digest of one job's coordinates.

    Tuples canonicalize to JSON lists, so ``(0.65,)`` and ``[0.65]`` produce
    the same key; anything non-JSON falls back to ``repr``.  A non-empty
    ``code_version`` becomes part of the coordinates.
    """
    coordinates: Dict[str, Any] = {
        "experiment_id": experiment_id, "params": dict(params), "seed": seed,
    }
    if code_version:
        coordinates["code_version"] = code_version
    canonical = json.dumps(coordinates, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of per-job result JSON files with hit/miss accounting."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        os.makedirs(root, exist_ok=True)

    def _path(self, experiment_id: str, seed: int, key: str) -> str:
        return os.path.join(self.root, f"{experiment_id}_seed{seed}_{key[:16]}.json")

    def get(self, experiment_id: str, params: Mapping[str, Any], seed: int,
            code_version: str = "") -> Optional[Dict[str, Any]]:
        """Cached ``ExperimentResult.to_dict()`` payload, or ``None`` on a miss.

        The file name carries only the first 16 hex characters of the job
        key, so two distinct jobs *can* collide on a path.  Before serving an
        entry, the stored coordinates are re-hashed and compared against the
        requested job's full key; a mismatch is a miss, never another job's
        result.  (Stored params went through a JSON round-trip — tuples came
        back as lists — but ``job_key`` canonicalises both spellings to the
        same digest, so legitimate hits still verify.)
        """
        key = job_key(experiment_id, params, seed, code_version)
        path = self._path(experiment_id, seed, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            result = entry["result"]
            stored_key = job_key(
                entry["experiment_id"], entry["params"], entry["seed"],
                entry.get("code_version", ""))
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        if stored_key != key:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, experiment_id: str, params: Mapping[str, Any], seed: int,
            result_dict: Dict[str, Any], code_version: str = "") -> str:
        """Store one job's result; returns the file path."""
        path = self._path(experiment_id, seed,
                          job_key(experiment_id, params, seed, code_version))
        entry = {
            "experiment_id": experiment_id,
            "seed": seed,
            "params": {k: v for k, v in params.items()},
            "code_version": code_version,
            "result": result_dict,
        }
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            # No sort_keys: series labels and table rows carry the paper's
            # ordering, which must survive a cache round-trip.
            json.dump(entry, handle, indent=1, default=repr)
        os.replace(tmp_path, path)
        return path

    @property
    def stats_line(self) -> str:
        """Human-readable hit/miss summary."""
        return f"cache: {self.hits} hit(s), {self.misses} miss(es) in {self.root}"
