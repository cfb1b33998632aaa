"""Every registered experiment's result, pinned by a committed digest.

Each digest is the first 16 hex digits of the SHA-256 of the experiment's
``to_dict()`` at ``FAST_PARAMS`` and seed 1, serialised with
``json.dumps(..., sort_keys=True)``.  A refactor that promises the same
bytes is checked by this file passing unchanged.  A change that is meant to
move a result updates the digest here and lists the experiment, with the
reason, in CHANGES.md.

Run it alone after a change::

    python -m pytest -q tests/integration/test_golden_results.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign.registry import get_registry
from repro.campaign.runner import execute_job

SEED = 1

GOLDEN_DIGESTS = {
    "city01": "7bfb5b99f59b6c56",
    "fig07": "bd6ae3b4a512742b",
    "fig08": "4e31206d2bc9a845",
    "fig09": "80522b8f2d36bc1f",
    "fig10": "3ffb429517f99711",
    "fig11": "10bd02a1914f75e0",
    "fig12": "3fb9cfe3494dbdbf",
    "fig13": "12bb146b3f04db14",
    "fig14": "60ee758dbc4d656e",
    "mob01": "a4f73159cc20bda5",
    "mob02": "c79e389b9f19464d",
    "mob03": "cc9c3ce931cfabee",
    "mob04": "cb0059513ed21bb8",
    "rt01": "8d2852da9ef80768",
    "rt02": "a3c1042e2865a1c2",
    "table02": "8516ee6cfb29c56b",
    "table03": "7a0a356b5c783c68",
    "table04": "8757a4e3f45b0ae9",
    "table05_07": "e92c25b84b15f43b",
    "table08": "d916a7bf7d3a3552",
}


def result_digest(experiment_id: str) -> str:
    """The digest of ``experiment_id``'s result at FAST_PARAMS and :data:`SEED`."""
    params = get_registry().get(experiment_id).resolve_params({}, fast=True)
    result = execute_job(experiment_id, params, SEED)
    encoded = json.dumps(result, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def test_every_registered_experiment_has_a_digest():
    assert set(get_registry().experiment_ids()) == set(GOLDEN_DIGESTS)


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_DIGESTS))
def test_result_matches_its_committed_digest(experiment_id):
    digest = result_digest(experiment_id)
    assert digest == GOLDEN_DIGESTS[experiment_id], (
        f"{experiment_id}: result digest {digest} != committed "
        f"{GOLDEN_DIGESTS[experiment_id]}")
