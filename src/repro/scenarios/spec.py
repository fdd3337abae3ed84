"""Declarative description of one simulated world.

A :class:`ScenarioSpec` is a frozen, fully-serializable value: testbed
shape (cluster names + scale factor), workload, fault regime, scheduler
policy, test-family selection and operator model.  Everything a campaign
needs is in the spec — benchmarks and examples reference scenarios by name
or file instead of duplicating constructor kwargs, and a spec can be
shipped to a worker process or archived next to its results.

The spec names clusters and check families from the built-in catalogues;
the one live object a world may be given besides its spec is a scheduling
strategy instance (``FrameworkBuilder(spec, strategy=...)``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ..checksuite.base import CheckFamily
from ..checksuite.registry import ALL_FAMILIES, family_by_name
from ..oar.traces import TraceReplayConfig
from ..oar.workload import WorkloadConfig
from ..scheduling.policies import SchedulerPolicy
from ..testbed.generator import CLUSTER_SPECS, ClusterSpec
from ..util.serialization import (
    canonical_json,
    content_hash,
    decode_dataclass,
    encode_dataclass,
)
from ..util.simclock import DAY

__all__ = ["ScenarioSpec"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulated world, declaratively.

    The defaults reproduce the paper's headline campaign (the
    ``paper-baseline`` preset): full 894-node testbed, five months,
    February's fault backlog, ~0.45 faults/day.
    """

    name: str = "custom"
    description: str = ""
    #: Default seed; :func:`repro.run_campaigns` fans additional seeds out.
    seed: int = 0
    months: float = 5.0
    #: Cluster names out of the synthetic catalog (``None`` = all 32).
    clusters: Optional[tuple[str, ...]] = None
    #: Node-count multiplier applied to every selected cluster — the cheap
    #: axis for "what if the testbed doubled?" scenarios.
    scale: float = 1.0
    #: Test-family names (``None`` = all sixteen).
    families: Optional[tuple[str, ...]] = None
    #: Latent faults present before testing starts (February's backlog).
    backlog_faults: int = 50
    #: ~0.45 faults/day plus the backlog lands the five-month bug count in
    #: the slide-22 band (118 filed) while letting fixes outpace arrivals —
    #: the regime behind the paper's improving reliability.
    fault_mean_interarrival_s: float = 2.2 * DAY
    policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)
    #: Workload variant: a :class:`WorkloadConfig` selects the synthetic
    #: Poisson generator, a :class:`~repro.oar.traces.TraceReplayConfig`
    #: replays a recorded trace file at its timestamps.  Both are frozen
    #: data, so the JSON codec dispatches on the document's fields.
    workload: Union[WorkloadConfig, TraceReplayConfig] = field(
        default_factory=lambda: WorkloadConfig(target_utilization=0.6))
    operator_speedup: float = 1.0
    #: A2 ablation: with the framework off, nothing detects or fixes faults.
    framework_enabled: bool = True
    pernode: bool = False
    executors: int = 16
    #: Scheduling strategy name (see ``repro.scheduling.strategy_names()``;
    #: e.g. the malleable policies ``common-pool``/``steal-agreement``).
    #: Resolved at build time, so presets stay importable before every
    #: strategy module has registered.
    strategy: str = "default"

    def __post_init__(self) -> None:
        if self.clusters is not None:
            known = {s.name for s in CLUSTER_SPECS}
            unknown = [c for c in self.clusters if c not in known]
            if unknown:
                raise ValueError(
                    f"unknown cluster(s) {unknown!r}; "
                    f"valid names: {sorted(known)}")
        if self.families is not None:
            for name in self.families:
                family_by_name(name)  # raises KeyError on typos
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    # -- derivation ------------------------------------------------------------

    def derive(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with some fields replaced (presets stay immutable)."""
        return dataclasses.replace(self, **overrides)

    # -- resolution into live objects -----------------------------------------

    def resolve_cluster_specs(self) -> tuple[ClusterSpec, ...]:
        """Materialize the cluster recipes this spec selects."""
        if self.clusters is None and self.scale == 1.0:
            # Identity: keeps build_grid5000's paper-exact inventory guard.
            return CLUSTER_SPECS
        selected = (CLUSTER_SPECS if self.clusters is None else
                    tuple(s for s in CLUSTER_SPECS if s.name in set(self.clusters)))
        if self.scale == 1.0:
            return selected
        return tuple(
            dataclasses.replace(s, nodes=max(1, round(s.nodes * self.scale)))
            for s in selected)

    def resolve_families(self) -> list[CheckFamily]:
        if self.families is None:
            return list(ALL_FAMILIES)
        return [family_by_name(n) for n in self.families]

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return encode_dataclass(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        return decode_dataclass(cls, data)

    def content_hash(self) -> str:
        """Short stable hash of the full spec document.

        Two specs hash equal iff every declarative knob matches; the
        campaign store keys cells by a variant of this hash (seed
        excluded, horizon override folded in) so that two different
        worlds can never collide on one archive slot.
        """
        return content_hash(self.to_dict())

    def to_json(self, indent: Optional[int] = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))
