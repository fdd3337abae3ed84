"""The testbed testing framework handle.

:class:`TestingFramework` is the fully-wired simulated world of the paper:
the testbed substrate, the user-facing services (OAR + synthetic workload,
Kadeploy, KaVLAN, monitoring), the fault injector that silently breaks
things, and Jenkins + the external scheduler + the bug tracker/operator
team that close the loop ("test-driven operations", slide 23).

Assembly lives in :mod:`repro.core.builder` (declarative
:class:`~repro.scenarios.ScenarioSpec` + pluggable subsystem registry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..checksuite.base import CheckContext, CheckFamily, TestOutcome
from ..ci.job import BuildStatus
from ..ci.server import JenkinsServer
from ..faults.catalog import FaultContext
from ..faults.injector import FaultInjector
from ..faults.services import ServiceHealth
from ..kadeploy.deployment import Kadeploy
from ..kavlan.manager import KavlanManager
from ..monitoring.probes import Ganglia, Kwapi
from ..nodes.machine import MachinePark, PowerState
from ..oar.database import OarDatabase
from ..oar.server import OarServer
from ..oar.workload import WorkloadSource
from ..scheduling.launcher import ExternalScheduler
from ..testbed.description import TestbedDescription
from ..testbed.refapi import ReferenceApi
from ..util.events import Simulator
from ..util.rng import RngStreams
from ..analysis.history import BuildHistory
from .bugtracker import BugTracker, OperatorTeam

__all__ = ["TestingFramework"]

#: Janitor sweep period (reboot crashed, unallocated nodes).
_JANITOR_PERIOD_S = 1200.0
#: Gremlin sweep period (spontaneous crashes for faulty machines).
_GREMLIN_PERIOD_S = 1800.0
#: Daily housekeeping (Gantt purge).
_HOUSEKEEPING_PERIOD_S = 86_400.0


@dataclass
class TestingFramework:
    """Handle on the fully-wired simulated world."""

    sim: Simulator
    rngs: RngStreams
    testbed: TestbedDescription
    refapi: ReferenceApi
    machines: MachinePark
    services: ServiceHealth
    oardb: OarDatabase
    oar: OarServer
    workload: WorkloadSource
    kadeploy: Kadeploy
    kavlan: KavlanManager
    kwapi: Kwapi
    ganglia: Ganglia
    fault_ctx: FaultContext
    injector: FaultInjector
    jenkins: JenkinsServer
    tracker: BugTracker
    operators: OperatorTeam
    scheduler: ExternalScheduler
    checkctx: CheckContext
    families: list[CheckFamily]
    history: BuildHistory
    outcomes: list[TestOutcome] = field(default_factory=list)
    _started: bool = False

    @property
    def ground_truth(self):
        return self.injector.ground_truth

    # -- lifecycle ------------------------------------------------------------

    def start(self, workload: bool = True, faults: bool = True,
              testing: bool = True) -> None:
        """Start all background processes (idempotent)."""
        if self._started:
            return
        self._started = True
        if workload:
            self.workload.start()
        if faults:
            self.injector.start()
        if testing:
            self.scheduler.start()
        self.sim.process(self._janitor(), name="janitor")
        self.sim.process(self._gremlin(), name="gremlin")
        self.sim.process(self._housekeeping(), name="housekeeping")

    def run_until(self, t: float) -> None:
        self.sim.run(until=t)

    # -- background operations ----------------------------------------------------

    def _janitor(self):
        """Operators' phoenix: reboot crashed nodes not held by a job.

        A period with no crashed node (the park's crashed mask is 0) looks
        at neither the running jobs nor the park; otherwise the nodes are
        visited in testbed order, so boots start in that order.
        """
        rng = self.rngs.stream("janitor")
        while True:
            yield self.sim.timeout(_JANITOR_PERIOD_S * float(rng.uniform(0.9, 1.1)))
            if not self.machines.crashed_mask:
                continue
            busy = {u for j in self.oar.running_jobs() for u in j.assigned_nodes}
            for machine in self.machines.machines.values():
                if machine.state == PowerState.CRASHED and machine.uid not in busy:
                    self.sim.process(machine.boot())

    def _gremlin(self):
        """Spontaneous crashes on machines with an active random-reboot
        fault (crash_mtbf_s set).

        The park indexes those machines, so a period visits only them, in
        testbed order: one draw per powered-on machine, as a full scan
        would make."""
        rng = self.rngs.stream("gremlin")
        while True:
            yield self.sim.timeout(_GREMLIN_PERIOD_S)
            for machine in self.machines.crash_prone_nodes():
                if machine.state != PowerState.ON:
                    continue
                p_crash = 1.0 - math.exp(-_GREMLIN_PERIOD_S
                                         / machine.crash_mtbf_s)
                if float(rng.random()) < p_crash:
                    machine.crash()

    def _housekeeping(self):
        while True:
            yield self.sim.timeout(_HOUSEKEEPING_PERIOD_S)
            self.oar.housekeeping()

    # -- Jenkins wiring ------------------------------------------------------------

    def _make_runner(self, family: CheckFamily):
        def runner(build):
            outcome = yield self.sim.process(
                family.run(self.checkctx, dict(build.parameters)))
            self.outcomes.append(outcome)
            for line in outcome.log:
                build.log_line(self.sim.now, line)
            if outcome.resources_blocked:
                build.log_line(self.sim.now,
                               "testbed job not schedulable now -> UNSTABLE")
                return BuildStatus.UNSTABLE
            if outcome.passed:
                return BuildStatus.SUCCESS
            for finding in outcome.findings:
                build.log_line(self.sim.now, str(finding))
            self.tracker.file_from_outcome(outcome)
            return BuildStatus.FAILURE

        return runner

    def register_family_jobs(self) -> None:
        for family in self.families:
            self.jenkins.register_job(
                f"test_{family.name}", self._make_runner(family),
                description=family.__class__.__doc__ or family.name,
            )

