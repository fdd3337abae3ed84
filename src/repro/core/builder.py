"""Composable construction of the simulated world.

World assembly takes two inputs: a declarative
:class:`~repro.scenarios.ScenarioSpec` and, optionally, a live
scheduling-strategy instance (the one thing that is not data: the wire
protocol's bridge needs its session).  Without one, the strategy the spec
names is built from the spec's policy.

Each stage of the world (testbed, oar, kadeploy, kavlan, monitoring,
faults, ci, scheduling) is a named factory in one module registry,
operating on a shared :class:`FrameworkBuild` state.
:func:`register_subsystem` rebinds a stage process-wide, so an
instrument can wrap one without touching this file.

The framework comes out fully wired — the external scheduler is
constructed *before* the (immutable) ``TestingFramework``, never patched
in afterwards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

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
from ..scheduling.policies import SchedulingStrategy, get_strategy
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
    cluster_specs: tuple[ClusterSpec, ...]
    families: list[CheckFamily]
    #: the strategy instance to attach; ``None`` builds the spec's one
    strategy: Optional[SchedulingStrategy] = None
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
    checkctx: object = None
    scheduler: object = None


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
    """Stage name -> factory mapping."""

    def __init__(self) -> None:
        self._factories: dict[str, SubsystemFactory] = {}

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


# -- default factories (the world of the paper) --------------------------------


#: Most cluster-spec sets the world cache keeps; past it the oldest entry
#: goes.  The presets use three distinct sets.
_WORLD_CACHE_MAX = 4

#: ``cluster_specs`` -> (template description, its initial RefAPI
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
    key = b.cluster_specs
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


def _build_scheduling(b: FrameworkBuild) -> None:
    """Check context + the availability-aware external scheduler."""
    b.checkctx = CheckContext(
        sim=b.sim, testbed=b.testbed, refapi=b.refapi, machines=b.machines,
        services=b.services, oar=b.oar, oardb=b.oardb, kadeploy=b.kadeploy,
        kavlan=b.kavlan, kwapi=b.kwapi, rngs=b.rngs,
    )
    strategy = b.strategy
    if strategy is None:
        strategy = get_strategy(b.spec.strategy)(b.spec.policy)
    b.scheduler = ExternalScheduler(
        b.sim, b.jenkins, b.oar, b.testbed, b.families, policy=b.spec.policy,
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
    """The live module registry every :meth:`FrameworkBuilder.build` reads."""
    return _DEFAULT


def register_subsystem(name: str, factory: SubsystemFactory) -> None:
    """Rebind one stage of the module registry (affects later builds)."""
    _DEFAULT.register(name, factory)


# -- the builder ---------------------------------------------------------------


class FrameworkBuilder:
    """Assemble a :class:`TestingFramework` from a :class:`ScenarioSpec`.

    >>> from repro import scenarios
    >>> fw = FrameworkBuilder(scenarios.get("tiny-smoke")).build()
    >>> fw.scheduler is not None
    True

    ``strategy`` is a :class:`SchedulingStrategy` instance to attach in
    place of the one the spec names (``None``: build the spec's).
    """

    def __init__(self, spec: Optional[ScenarioSpec] = None,
                 strategy: Optional[SchedulingStrategy] = None):
        self._spec = spec if spec is not None else ScenarioSpec()
        self._strategy = strategy

    def build(self) -> TestingFramework:
        """Run every subsystem factory and return the wired framework."""
        spec = self._spec
        sim = Simulator()
        rngs = RngStreams(seed=spec.seed)
        families = spec.resolve_families()
        if spec.pernode:
            families = [PerNodeVariant(f) if f.kind == "hardware" else f
                        for f in families]
        build = FrameworkBuild(spec=spec, sim=sim, rngs=rngs,
                               cluster_specs=spec.resolve_cluster_specs(),
                               families=families, strategy=self._strategy)
        for name in SUBSYSTEM_ORDER:
            _DEFAULT.factory(name)(build)
        framework = TestingFramework(
            sim=sim, rngs=rngs, testbed=build.testbed, refapi=build.refapi,
            machines=build.machines, services=build.services,
            oardb=build.oardb, oar=build.oar, workload=build.workload,
            kadeploy=build.kadeploy, kavlan=build.kavlan, kwapi=build.kwapi,
            fault_ctx=build.fault_ctx, injector=build.injector,
            jenkins=build.jenkins, tracker=build.tracker,
            operators=build.operators,
            scheduler=build.scheduler, checkctx=build.checkctx,
            families=build.families,
        )
        framework.register_family_jobs()
        return framework
