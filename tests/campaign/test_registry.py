"""Registry completeness and parameter-schema tests."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro.experiments
from repro.campaign.registry import discover, get_registry, parse_overrides
from repro.errors import ExperimentError

EXPECTED_IDS = {
    "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "table02", "table03", "table04", "table05_07", "table08",
    # Mobile-scenario experiments (beyond the paper's stationary setup).
    "mob01", "mob02",
    # Dynamic-routing experiments (DSDV control plane, PR 4).
    "mob03", "mob04", "rt01", "rt02",
    # City-scale experiments (spatially indexed medium, PR 10).
    "city01",
}


def test_every_experiment_runner_is_registered():
    """Each repro.experiments module with a run() must carry a registry hook."""
    registry = get_registry()
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if hasattr(module, "run"):
            assert hasattr(module, "EXPERIMENT_ID"), (
                f"{module.__name__} exposes run() but has no EXPERIMENT_ID hook")
            assert module.EXPERIMENT_ID in registry


def test_registry_ids_match_the_paper():
    registry = get_registry()
    assert set(registry.experiment_ids()) == EXPECTED_IDS
    assert len(registry) == len(EXPECTED_IDS)


def test_every_spec_accepts_a_seed_and_has_fast_params():
    registry = get_registry()
    for experiment_id in registry.experiment_ids():
        spec = registry.get(experiment_id)
        assert "seed" in spec.parameter_names, experiment_id
        assert spec.fast_params, f"{experiment_id} has no reduced sweep"
        assert spec.description
        # Every FAST_PARAMS key must name a real run() parameter.
        unknown = set(spec.fast_params) - set(spec.parameter_names)
        assert not unknown, f"{experiment_id}: bogus fast params {unknown}"


def test_resolve_params_layers_defaults_fast_and_overrides():
    spec = get_registry().get("fig09")
    fast = spec.resolve_params()
    assert fast["flooding_intervals"] == (0.5, 2.0)  # FAST_PARAMS won
    assert "seed" not in fast  # the runner supplies seeds per job
    full = spec.resolve_params(fast=False)
    assert full["flooding_intervals"] == (0.25, 0.5, 1.0, 2.0, 5.0)
    overridden = spec.resolve_params({"duration": 2.5})
    assert overridden["duration"] == 2.5


def test_resolve_params_rejects_unknown_names():
    spec = get_registry().get("fig09")
    with pytest.raises(ExperimentError, match="unknown parameter"):
        spec.resolve_params({"floodng_intervals": (1.0,)})


def test_resolve_params_rejects_seed_override():
    spec = get_registry().get("fig09")
    with pytest.raises(ExperimentError, match="seed"):
        spec.resolve_params({"seed": 42})


def test_unknown_experiment_id_raises():
    with pytest.raises(ExperimentError, match="unknown experiment"):
        get_registry().get("fig99")


def test_discover_builds_a_fresh_registry():
    assert set(discover().experiment_ids()) == EXPECTED_IDS


def test_set_values_are_literals_or_bare_strings():
    overrides = parse_overrides(["placement=grid", "node_counts=(9, 16)",
                                 "duration=1.5", "protocols=('aodv',)"])
    assert overrides == {"placement": "grid", "node_counts": (9, 16),
                         "duration": 1.5, "protocols": ("aodv",)}
    params = get_registry().get("city01").resolve_params(overrides)
    assert params["placement"] == "grid"
    assert params["node_counts"] == (9, 16)
