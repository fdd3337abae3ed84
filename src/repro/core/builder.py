"""Composable construction of the simulated world.

World assembly is split into:

* a **subsystem registry** — each stage of the world (testbed, oar,
  kadeploy, kavlan, monitoring, faults, ci, scheduling) is a named factory
  operating on a shared :class:`FrameworkBuild` state, so an alternate
  backend (a stub OAR, a recording monitoring layer, a different
  scheduler) swaps in without touching this file;
* a :class:`FrameworkBuilder` that assembles a
  :class:`~repro.core.framework.TestingFramework` from a declarative
  :class:`~repro.scenarios.ScenarioSpec`, with override hooks for the few
  things that are live objects rather than data (custom ``ClusterSpec``
  lists, pre-built ``CheckFamily`` instances, factory swaps).

The framework comes out fully wired — the external scheduler is
constructed *before* the (immutable) ``TestingFramework``, never patched
in afterwards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..analysis.history import BuildHistory
from ..checksuite.base import CheckContext, CheckFamily
from ..ci.server import JenkinsServer
from ..faults.catalog import FaultContext
from ..faults.injector import FaultInjector
from ..faults.services import ServiceHealth
from ..kadeploy.deployment import Kadeploy
from ..kadeploy.images import REFERENCE_IMAGES
from ..kavlan.manager import KavlanManager
from ..monitoring.probes import Kwapi
from ..nodes.machine import MachinePark
from ..oar.database import OarDatabase
from ..oar.server import OarServer
from ..oar.traces import TraceReplayConfig, TraceReplayGenerator
from ..oar.workload import WorkloadGenerator
from ..scenarios.spec import ScenarioSpec
from ..scheduling.launcher import ExternalScheduler
from ..scheduling.pernode import PerNodeVariant
from ..scheduling.policies import get_strategy
from ..testbed.description import TestbedDescription
from ..testbed.generator import ClusterSpec, build_grid5000
from ..testbed.refapi import RefApiVersion, ReferenceApi
from ..testbed.topology import build_topology
from ..util.events import Simulator
from ..util.rng import RngStreams
from .bugtracker import BugTracker, OperatorTeam
from .framework import TestingFramework

__all__ = [
    "FrameworkBuild",
    "FrameworkBuilder",
    "SubsystemRegistry",
    "SUBSYSTEM_ORDER",
    "default_registry",
    "register_subsystem",
]


@dataclass
class FrameworkBuild:
    """Mutable state threaded through the subsystem factories.

    Factories read what earlier stages produced and assign their own
    products; :meth:`FrameworkBuilder.build` turns the finished state into
    the immutable :class:`TestingFramework`.
    """

    spec: ScenarioSpec
    sim: Simulator
    rngs: RngStreams
    cluster_specs: Sequence[ClusterSpec]
    families: list[CheckFamily]
    # products, stage by stage (filled in SUBSYSTEM_ORDER)
    testbed: object = None
    refapi: object = None
    machines: object = None
    services: object = None
    topology: object = None
    oardb: object = None
    oar: object = None
    workload: object = None
    kadeploy: object = None
    kavlan: object = None
    kwapi: object = None
    fault_ctx: object = None
    injector: object = None
    jenkins: object = None
    tracker: object = None
    operators: object = None
    history: object = None
    checkctx: object = None
    scheduler: object = None
    extras: dict = field(default_factory=dict)


SubsystemFactory = Callable[[FrameworkBuild], None]

#: Assembly order — later stages may depend on any earlier product.
SUBSYSTEM_ORDER: tuple[str, ...] = (
    "testbed",
    "oar",
    "kadeploy",
    "kavlan",
    "monitoring",
    "faults",
    "ci",
    "scheduling",
)


class SubsystemRegistry:
    """Name -> factory mapping with copy-on-customize semantics."""

    def __init__(self, factories: Optional[dict[str, SubsystemFactory]] = None):
        self._factories: dict[str, SubsystemFactory] = dict(factories or {})

    def register(self, name: str, factory: SubsystemFactory) -> None:
        if name not in SUBSYSTEM_ORDER:
            raise ValueError(
                f"unknown subsystem {name!r}; stages are {SUBSYSTEM_ORDER}")
        self._factories[name] = factory

    def factory(self, name: str) -> SubsystemFactory:
        try:
            return self._factories[name]
        except KeyError:
            raise KeyError(f"no factory registered for subsystem {name!r}") \
                from None

    def copy(self) -> "SubsystemRegistry":
        return SubsystemRegistry(self._factories)


# -- default factories (the world of the paper) --------------------------------


#: Most cluster-spec sets the world cache keeps; past it the oldest entry
#: goes.  The presets use three distinct sets.
_WORLD_CACHE_MAX = 4

#: ``tuple(cluster_specs)`` -> (template description, its initial RefAPI
#: import).  Descriptions are a pure function of the specs and no seed, so
#: each set is built and imported once per process.  The template never
#: leaves the cache: every run gets :meth:`TestbedDescription.copy`, whose
#: containers are its own and whose nodes are frozen, and the shared
#: import's ``doc`` is read-only.
_world_cache: dict[tuple[ClusterSpec, ...],
                   tuple[TestbedDescription, RefApiVersion]] = {}
#: Serialises inserts and evictions: service sessions build in threads.
_world_cache_lock = threading.Lock()


def _build_testbed(b: FrameworkBuild) -> None:
    """Substrate: descriptions, Reference API, machines, network, services."""
    key = tuple(b.cluster_specs)
    entry = _world_cache.get(key)
    if entry is None:
        # The original object, so build_grid5000's paper-exact inventory
        # guard still runs on the full testbed.
        template = build_grid5000(b.cluster_specs)
        entry = (template, ReferenceApi(template).head)
        with _world_cache_lock:
            if len(_world_cache) >= _WORLD_CACHE_MAX:
                del _world_cache[next(iter(_world_cache))]
            _world_cache[key] = entry
    template, head = entry
    b.testbed = template.copy()
    b.refapi = ReferenceApi.from_head(b.testbed, head)
    b.machines = MachinePark.from_testbed(b.sim, b.testbed, b.rngs)
    b.services = ServiceHealth()
    b.topology = build_topology(b.testbed)


def _build_oar(b: FrameworkBuild) -> None:
    """Resource manager + the user workload that contends with tests.

    The spec's ``workload`` variant picks the source: a
    :class:`WorkloadConfig` builds the synthetic Poisson generator, a
    :class:`TraceReplayConfig` replays a recorded trace at its timestamps.
    """
    b.oardb = OarDatabase(b.refapi, b.services)
    b.oar = OarServer(b.sim, b.oardb, b.machines)
    if isinstance(b.spec.workload, TraceReplayConfig):
        b.workload = TraceReplayGenerator.from_config(
            b.sim, b.oar, b.spec.workload, testbed=b.testbed)
    else:
        b.workload = WorkloadGenerator(b.sim, b.oar, b.testbed, b.rngs,
                                       b.spec.workload)


def _build_kadeploy(b: FrameworkBuild) -> None:
    b.kadeploy = Kadeploy(b.sim, b.machines, b.services, b.rngs)


def _build_kavlan(b: FrameworkBuild) -> None:
    b.kavlan = KavlanManager(b.sim, b.topology, b.services,
                             [s.uid for s in b.testbed.sites])


def _build_monitoring(b: FrameworkBuild) -> None:
    b.kwapi = Kwapi(b.machines, b.testbed, b.services)


def _build_faults(b: FrameworkBuild) -> None:
    image_names = tuple(img.name for img in REFERENCE_IMAGES)
    b.fault_ctx = FaultContext.build(b.machines, b.services, image_names)
    b.injector = FaultInjector(
        b.sim, b.fault_ctx, b.rngs,
        mean_interarrival_s=b.spec.fault_mean_interarrival_s)


def _build_ci(b: FrameworkBuild) -> None:
    """Jenkins and the bug-filing/fixing loop behind it."""
    b.jenkins = JenkinsServer(b.sim, executors=b.spec.executors)
    b.tracker = BugTracker(b.sim, b.injector.ground_truth, b.fault_ctx)
    b.operators = OperatorTeam(b.sim, b.tracker, b.injector, b.rngs,
                               speedup=b.spec.operator_speedup)
    b.history = BuildHistory()


def _build_scheduling(b: FrameworkBuild) -> None:
    """Check context + the availability-aware external scheduler."""
    b.checkctx = CheckContext(
        sim=b.sim, testbed=b.testbed, refapi=b.refapi, machines=b.machines,
        services=b.services, oar=b.oar, oardb=b.oardb, kadeploy=b.kadeploy,
        kavlan=b.kavlan, kwapi=b.kwapi, rngs=b.rngs,
    )
    history = b.history
    strategy_factory = b.extras.get("scheduling_strategy")
    if strategy_factory is not None:
        strategy = strategy_factory(b.spec.policy)
    else:
        # Resolve the spec's strategy name against the registry.  Only
        # `(policy)`-constructible strategies are name-addressable; ones
        # needing live collaborators (e.g. the wire-protocol bridge) ride
        # in via the extras factory above.
        strategy = get_strategy(b.spec.strategy)(b.spec.policy)
    b.scheduler = ExternalScheduler(
        b.sim, b.jenkins, b.oar, b.testbed, b.families, policy=b.spec.policy,
        on_build_done=lambda cell, build: history.record(cell, build),
        strategy=strategy,
    )


_DEFAULT = SubsystemRegistry()
for _name, _factory in (
    ("testbed", _build_testbed),
    ("oar", _build_oar),
    ("kadeploy", _build_kadeploy),
    ("kavlan", _build_kavlan),
    ("monitoring", _build_monitoring),
    ("faults", _build_faults),
    ("ci", _build_ci),
    ("scheduling", _build_scheduling),
):
    _DEFAULT.register(_name, _factory)


def default_registry() -> SubsystemRegistry:
    """A private copy of the default subsystem factories."""
    return _DEFAULT.copy()


def register_subsystem(name: str, factory: SubsystemFactory) -> None:
    """Globally replace a default subsystem backend (affects new builders)."""
    _DEFAULT.register(name, factory)


# -- the builder ---------------------------------------------------------------


class FrameworkBuilder:
    """Assemble a :class:`TestingFramework` from a :class:`ScenarioSpec`.

    >>> from repro import scenarios
    >>> fw = FrameworkBuilder(scenarios.get("tiny-smoke")).build()
    >>> fw.scheduler is not None
    True

    Fluent overrides cover the non-declarative escape hatches, and a
    registry swaps subsystem backends for one builder::

        registry = default_registry()
        registry.register("monitoring", my_recording_monitoring)
        fw = (FrameworkBuilder(spec.derive(seed=7), registry=registry)
              .with_families([family_by_name("refapi")])
              .build())
    """

    def __init__(self, spec: Optional[ScenarioSpec] = None,
                 registry: Optional[SubsystemRegistry] = None):
        self._spec = spec if spec is not None else ScenarioSpec()
        self._registry = (registry if registry is not None
                          else _DEFAULT).copy()
        self._cluster_specs: Optional[Sequence[ClusterSpec]] = None
        self._families: Optional[Sequence[CheckFamily]] = None
        self._extras: dict = {}

    # -- fluent configuration --------------------------------------------------

    def with_cluster_specs(
            self, specs: Sequence[ClusterSpec]) -> "FrameworkBuilder":
        """Explicit cluster recipes (bypasses the spec's name-based selection)."""
        self._cluster_specs = specs
        return self

    def with_families(
            self, families: Sequence[CheckFamily]) -> "FrameworkBuilder":
        """Pre-built family instances (bypasses the spec's name list)."""
        self._families = families
        return self

    def with_extra(self, name: str, value) -> "FrameworkBuilder":
        """Seed a ``FrameworkBuild.extras`` entry for the factories to read
        (e.g. ``scheduling_strategy``: a ``policy -> SchedulingStrategy``
        factory consumed by the default scheduling stage)."""
        self._extras[name] = value
        return self

    # -- assembly --------------------------------------------------------------

    def build(self) -> TestingFramework:
        """Run every subsystem factory and return the wired framework."""
        spec = self._spec
        sim = Simulator()
        rngs = RngStreams(seed=spec.seed)
        cluster_specs = (self._cluster_specs if self._cluster_specs is not None
                         else spec.resolve_cluster_specs())
        families = (list(self._families) if self._families is not None
                    else spec.resolve_families())
        if spec.pernode:
            families = [PerNodeVariant(f) if f.kind == "hardware" else f
                        for f in families]
        build = FrameworkBuild(spec=spec, sim=sim, rngs=rngs,
                               cluster_specs=cluster_specs, families=families,
                               extras=dict(self._extras))
        for name in SUBSYSTEM_ORDER:
            self._registry.factory(name)(build)
        framework = TestingFramework(
            sim=sim, rngs=rngs, testbed=build.testbed, refapi=build.refapi,
            machines=build.machines, services=build.services,
            oardb=build.oardb, oar=build.oar, workload=build.workload,
            kadeploy=build.kadeploy, kavlan=build.kavlan, kwapi=build.kwapi,
            fault_ctx=build.fault_ctx, injector=build.injector,
            jenkins=build.jenkins, tracker=build.tracker,
            operators=build.operators,
            scheduler=build.scheduler, checkctx=build.checkctx,
            families=build.families, history=build.history,
        )
        framework.register_family_jobs()
        return framework
