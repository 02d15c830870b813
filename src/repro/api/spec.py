"""Declarative experiment specifications (dataclass ⇄ JSON dict).

An :class:`ExperimentSpec` captures one complete head-to-head run — which
trace to generate, how the simulation runner is configured, and which
registered policies to evaluate with which kwargs — as plain data that
round-trips through JSON.  :func:`run_spec` executes it and returns one
:class:`repro.eval.metrics.EvaluationResult` per policy, which is the single
execution path shared by ``repro.eval.experiments``, the ``examples/``
scripts and the ``python -m repro`` CLI.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..datasets import CrowdDataset, cached_crowdspring, generate_crowdspring
from ..eval.metrics import EvaluationResult
from ..eval.runner import RunnerConfig, SimulationRunner
from .registry import build_policy, policy_entry

__all__ = ["DatasetSpec", "PolicySpec", "ExperimentSpec", "run_spec"]


def _from_known_fields(cls, data: dict, what: str):
    """Instantiate a dataclass from a dict, rejecting unknown keys loudly."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)} (known: {sorted(known)})")
    try:
        return cls(**data)
    except TypeError as error:
        raise ValueError(f"invalid {what}: {error}") from None


@dataclass
class DatasetSpec:
    """Which CrowdSpring-like trace to generate (see ``generate_crowdspring``)."""

    scale: float = 1.0
    num_months: int = 13
    seed: int = 7

    def build(
        self, cache_dir: str | Path | None = None, write_cache: bool = True
    ) -> CrowdDataset:
        """Generate the trace — or read it from an on-disk cache.

        With ``cache_dir`` set, the generated dataset is persisted once under
        a name derived from this spec's identity and every later build (in
        any process) loads the cached trace bit-identically instead of
        regenerating it.  ``write_cache=False`` makes a cache miss generate
        in memory without writing (read-only consumers, e.g. sweep workers).
        """
        if cache_dir is not None:
            return cached_crowdspring(
                self.scale, self.num_months, self.seed, cache_dir, write=write_cache
            )
        return generate_crowdspring(scale=self.scale, num_months=self.num_months, seed=self.seed)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetSpec":
        return _from_known_fields(cls, data, "dataset spec")


@dataclass
class PolicySpec:
    """One (registered policy name, builder kwargs) entry of an experiment."""

    policy: str
    kwargs: dict = field(default_factory=dict)
    #: Optional override for the result key (defaults to the built policy's
    #: display name); needed when one spec runs the same policy twice.
    label: str | None = None

    def to_dict(self) -> dict:
        data: dict = {"policy": self.policy}
        if self.kwargs:
            data["kwargs"] = dict(self.kwargs)
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PolicySpec":
        spec = _from_known_fields(cls, data, "policy spec")
        if not isinstance(spec.policy, str) or not spec.policy:
            raise ValueError("policy spec requires a non-empty 'policy' name")
        if not isinstance(spec.kwargs, dict):
            raise ValueError("policy 'kwargs' must be a JSON object")
        return spec


@dataclass
class ExperimentSpec:
    """A full experiment: dataset + runner configuration + policy line-up."""

    name: str = "experiment"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    policies: list[PolicySpec] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dataset": self.dataset.to_dict(),
            "runner": asdict(self.runner),
            "policies": [policy.to_dict() for policy in self.policies],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError(f"experiment spec must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {"name", "dataset", "runner", "policies"}
        if unknown:
            raise ValueError(f"unknown experiment spec keys: {sorted(unknown)}")
        policies_data = data.get("policies", [])
        if not isinstance(policies_data, list):
            raise ValueError("policies section must be a JSON array")
        spec = cls(
            name=str(data.get("name", "experiment")),
            dataset=DatasetSpec.from_dict(data.get("dataset", {})),
            runner=_from_known_fields(RunnerConfig, data.get("runner", {}), "runner"),
            policies=[PolicySpec.from_dict(entry) for entry in policies_data],
        )
        # Reject ambiguous line-ups at parse time: repeated labels, or the
        # same policy repeated without distinguishing labels, would collide
        # in the results dict (the old behaviour silently kept the last
        # one).  Labels and bare policy names are checked separately — an
        # unlabeled entry's runtime key is its *display* name, which is only
        # known once the policy is built, so run_spec keeps the authoritative
        # duplicate-label check.
        labels: set[str] = set()
        unlabeled: set[str] = set()
        for policy_spec in spec.policies:
            pool = unlabeled if policy_spec.label is None else labels
            key = policy_spec.label if policy_spec.label is not None else policy_spec.policy
            if key in pool:
                raise ValueError(
                    f"spec {spec.name!r} lists policy {key!r} more than once; "
                    "set a distinct PolicySpec.label on repeated policies"
                )
            pool.add(key)
        return spec

    # ------------------------------------------------------------------ #
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no experiment spec at {path}")
        return cls.from_json(path.read_text())


#: Characters unsafe in filenames derived from labels / axis values (shared
#: with the sweep layer so checkpoint slugs and cell ids never diverge).
_UNSAFE_COMPONENT = re.compile(r"[^A-Za-z0-9._=-]+")


def _label_slug(label: str) -> str:
    """Filesystem-safe file stem for a result label."""
    slug = _UNSAFE_COMPONENT.sub("-", label).strip("-.")
    return slug or "policy"


def _checkpoint_path(
    spec: ExperimentSpec,
    label: str,
    checkpoint_dir: str | Path | None,
    checkpoint_slugs: dict[str, str],
) -> Path | None:
    """Per-label checkpoint file, refusing slug collisions loudly."""
    if checkpoint_dir is None:
        return None
    slug = _label_slug(label)
    if slug in checkpoint_slugs:
        raise ValueError(
            f"labels {checkpoint_slugs[slug]!r} and {label!r} in spec "
            f"{spec.name!r} both checkpoint to {slug}.npz; relabel one "
            "so their checkpoints cannot overwrite each other"
        )
    checkpoint_slugs[slug] = label
    return Path(checkpoint_dir) / f"{slug}.npz"


def run_spec(
    spec: ExperimentSpec,
    dataset: CrowdDataset | None = None,
    checkpoint_dir: str | Path | None = None,
    dataset_cache_dir: str | Path | None = None,
    vectorize: int | None = None,
    resume: bool = False,
) -> dict[str, EvaluationResult]:
    """Execute a spec and return the results keyed by policy label.

    ``dataset`` overrides the spec's generated trace (used when several specs
    share one dataset, or when a synthetic variant was derived from it).

    ``checkpoint_dir`` enables the runner's periodic auto-checkpointing (when
    ``spec.runner.checkpoint_every`` is set): every checkpointable policy
    writes ``<checkpoint_dir>/<label>.npz``, overwritten in place as training
    progresses, so an interrupted run leaves its latest state restorable via
    the ``ddqn-checkpoint`` registry entry.  With ``resume=True`` an existing
    ``<label>.runstate.npz`` sidecar additionally fast-forwards that policy's
    run to the checkpointed arrival instead of redoing finished work.

    ``dataset_cache_dir`` points at a read-only trace cache (see
    :meth:`DatasetSpec.build`); the sweep runner passes the cache it
    pre-populated so worker processes skip trace regeneration.

    ``vectorize`` runs the spec's policies through the episode-vectorized
    platform in lockstep groups of up to that many replicas instead of one
    after another: the DDQN replicas' candidate scorings and train steps are
    fused across replicas (see :class:`repro.eval.VectorizedRunner`) while
    every result stays float-for-float identical to the serial run.  Note
    that a lockstep group keeps all of its policies in memory at once.
    """
    if not spec.policies:
        raise ValueError(f"experiment spec {spec.name!r} lists no policies")
    if vectorize is not None and vectorize < 1:
        raise ValueError(f"vectorize must be >= 1 or None, got {vectorize}")
    # Fail fast on typo'd policy names before any (possibly hours-long)
    # simulation starts; policies themselves are built one at a time below so
    # (in the serial path) at most one trained framework is resident at once.
    for policy_spec in spec.policies:
        policy_entry(policy_spec.policy)
    if dataset is None:
        dataset = spec.dataset.build(cache_dir=dataset_cache_dir, write_cache=False)

    checkpoint_slugs: dict[str, str] = {}
    width = 1 if vectorize is None else vectorize
    if width <= 1:
        runner = SimulationRunner(dataset, spec.runner)
        results: dict[str, EvaluationResult] = {}
        for policy_spec in spec.policies:
            policy = build_policy(policy_spec.policy, dataset, **policy_spec.kwargs)
            label = policy_spec.label if policy_spec.label is not None else policy.name
            if label in results:
                raise ValueError(
                    f"duplicate result label {label!r} in spec {spec.name!r}; "
                    "set PolicySpec.label to disambiguate repeated policies"
                )
            path = _checkpoint_path(spec, label, checkpoint_dir, checkpoint_slugs)
            results[label] = runner.run(policy, checkpoint_path=path, resume=resume)
        return results

    from ..eval.runner import VectorizedRunner

    # Policies are built one lockstep chunk at a time, so at most ``width``
    # trained frameworks are resident at once (mirroring the serial path's
    # one-at-a-time bound, scaled by the requested lockstep width).
    results = {}
    seen: set[str] = set()
    for start in range(0, len(spec.policies), width):
        chunk: list[tuple[str, object, Path | None]] = []
        for policy_spec in spec.policies[start : start + width]:
            policy = build_policy(policy_spec.policy, dataset, **policy_spec.kwargs)
            label = policy_spec.label if policy_spec.label is not None else policy.name
            if label in seen:
                raise ValueError(
                    f"duplicate result label {label!r} in spec {spec.name!r}; "
                    "set PolicySpec.label to disambiguate repeated policies"
                )
            seen.add(label)
            path = _checkpoint_path(spec, label, checkpoint_dir, checkpoint_slugs)
            chunk.append((label, policy, path))
        replicas = [(dataset, policy, path) for _, policy, path in chunk]
        chunk_results = VectorizedRunner(replicas, spec.runner, resume=resume).run()
        for (label, _, _), result in zip(chunk, chunk_results):
            results[label] = result
    return results
