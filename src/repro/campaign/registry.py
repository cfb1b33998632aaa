"""Auto-discovery registry of the paper's experiment runners.

Every module in :mod:`repro.experiments` that exposes both a ``run(...)``
callable and an ``EXPERIMENT_ID`` string is registered under that id
(``fig07`` … ``table08``).  The registry records each runner's parameter
schema (name, default, annotation) introspected from the ``run`` signature,
plus the module's ``FAST_PARAMS`` — a reduced sweep that keeps campaign runs
and CI smoke tests fast — and the digest of the whole ``repro`` package's
source, which versions every cached result.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import os
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import repro.experiments
from repro.errors import ExperimentError


def package_source_digest(root: str) -> str:
    """Digest of every ``.py`` file under ``root``: sorted relative path plus bytes.

    A result depends on the whole simulator, not only on its runner, so the
    cache keys results by this digest and any source edit turns them into
    misses.  Files are read directly: ``linecache`` can serve stale text.
    """
    paths = sorted(
        os.path.relpath(os.path.join(directory, name), root).replace(os.sep, "/")
        for directory, _, names in os.walk(root)
        for name in names if name.endswith(".py"))
    digest = hashlib.sha256()
    for path in paths:
        with open(os.path.join(root, path), "rb") as handle:
            source = handle.read()
        digest.update(f"{path}\0{len(source)}\0".encode("utf-8"))
        digest.update(source)
    return digest.hexdigest()[:16]


def parse_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse repeated ``--set name=value`` flags; values are Python literals.

    Shared by the campaign and observability CLIs.  A value that is not a
    literal is kept as its bare string (``--set placement=grid``); a pair
    without ``=`` or a name raises :class:`~repro.errors.ExperimentError`.
    """
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        name, separator, raw = pair.partition("=")
        if not separator or not name:
            raise ExperimentError(f"--set expects name=value, got {pair!r}")
        try:
            overrides[name] = ast.literal_eval(raw)
        except (SyntaxError, ValueError):
            overrides[name] = raw  # bare strings are fine unquoted
    return overrides


@dataclass(frozen=True)
class ParameterSpec:
    """One keyword parameter of an experiment's ``run`` function."""

    name: str
    default: Any
    annotation: str


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: its id, runner and parameter schema."""

    experiment_id: str
    module_name: str
    description: str
    run: Callable[..., Any]
    parameters: Tuple[ParameterSpec, ...]
    fast_params: Mapping[str, Any]
    #: Digest of the ``repro`` package's source; folded into cache keys so
    #: editing any simulator module invalidates every cached result.
    source_digest: str = ""

    @property
    def parameter_names(self) -> Tuple[str, ...]:
        """Names of all declared parameters (including ``seed``)."""
        return tuple(p.name for p in self.parameters)

    def resolve_params(self, overrides: Optional[Mapping[str, Any]] = None,
                       fast: bool = True) -> Dict[str, Any]:
        """Materialize the full parameter dict for one run.

        Layering: signature defaults, then ``FAST_PARAMS`` (unless
        ``fast=False``), then ``overrides``.  ``seed`` is excluded — the
        campaign runner supplies it per job — and unknown override names
        raise so typos do not silently run the default sweep.
        """
        params = {p.name: p.default for p in self.parameters}
        if fast:
            params.update(self.fast_params)
        if overrides:
            if "seed" in overrides:
                raise ExperimentError(
                    "'seed' cannot be overridden; the campaign runner supplies "
                    "one seed per job (use --seeds / --base-seed)")
            unknown = sorted(set(overrides) - set(self.parameter_names))
            if unknown:
                raise ExperimentError(
                    f"unknown parameter(s) {unknown} for {self.experiment_id}; "
                    f"valid: {sorted(self.parameter_names)}")
            params.update(overrides)
        params.pop("seed", None)
        return params


class ExperimentRegistry:
    """Mapping of experiment id → :class:`ExperimentSpec`."""

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}

    def register(self, spec: ExperimentSpec) -> None:
        """Add a spec (duplicate ids are a configuration error)."""
        if spec.experiment_id in self._specs:
            raise ExperimentError(f"duplicate experiment id {spec.experiment_id!r}")
        self._specs[spec.experiment_id] = spec

    def get(self, experiment_id: str) -> ExperimentSpec:
        """Look up a spec by id."""
        try:
            return self._specs[experiment_id]
        except KeyError:
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; known: {self.experiment_ids()}"
            ) from None

    def experiment_ids(self) -> Tuple[str, ...]:
        """All registered ids, sorted."""
        return tuple(sorted(self._specs))

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._specs


def _spec_from_module(module: Any, source_digest: str) -> ExperimentSpec:
    """Build a spec from a hooked experiment module."""
    run = module.run
    parameters = tuple(
        ParameterSpec(
            name=param.name,
            default=param.default,
            annotation="" if param.annotation is inspect.Parameter.empty
            else str(param.annotation),
        )
        for param in inspect.signature(run).parameters.values()
        if param.default is not inspect.Parameter.empty
    )
    doc = inspect.getdoc(module) or ""
    fast_params = dict(getattr(module, "FAST_PARAMS", {}))
    parameter_names = {p.name for p in parameters}
    bogus = sorted(set(fast_params) - parameter_names)
    if bogus:
        # Catch FAST_PARAMS typos at discovery instead of as opaque
        # TypeErrors inside pool workers.
        raise ExperimentError(
            f"{module.__name__}: FAST_PARAMS name(s) {bogus} do not match "
            f"run() parameters {sorted(parameter_names)}")
    return ExperimentSpec(
        experiment_id=module.EXPERIMENT_ID,
        module_name=module.__name__,
        description=doc.splitlines()[0] if doc else "",
        run=run,
        parameters=parameters,
        fast_params=fast_params,
        source_digest=source_digest,
    )


def discover() -> ExperimentRegistry:
    """Import every ``repro.experiments`` module and register the hooked ones.

    Every spec carries the same :func:`package_source_digest` of the
    ``repro`` package, computed once per discovery.
    """
    registry = ExperimentRegistry()
    source_digest = package_source_digest(os.path.dirname(repro.__file__))
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if hasattr(module, "run") and hasattr(module, "EXPERIMENT_ID"):
            registry.register(_spec_from_module(module, source_digest))
    return registry


_registry: Optional[ExperimentRegistry] = None


def get_registry() -> ExperimentRegistry:
    """The process-wide registry, discovered on first use."""
    global _registry
    if _registry is None:
        _registry = discover()
    return _registry
