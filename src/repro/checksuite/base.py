"""Base machinery for the test-script families (slide 21).

Design follows the paper's stated philosophy — *"Keep It Simple, Stupid"*:
each family is a small class with a ``configurations`` list (its cells in
the coverage matrix) and a ``run`` generator that exercises the testbed
through exactly the interfaces a user would (OAR, Kadeploy, KaVLAN, the
monitoring API, ...) and reports *actionable findings*: "exhibit issues,
but also provide sufficient information to testbed operators to understand
and fix the issue".

A finding carries a root-cause hint (:class:`~repro.faults.FaultKind`) and
a target; the bug tracker later matches findings against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..checks.g5kchecks import run_g5k_checks
from ..faults.catalog import FaultKind
from ..faults.services import ServiceHealth
from ..kadeploy.deployment import Kadeploy
from ..kavlan.manager import KavlanManager
from ..monitoring.probes import Kwapi
from ..nodes.machine import MachinePark
from ..oar.database import OarDatabase
from ..oar.jobs import Job, JobState
from ..oar.server import OarServer
from ..testbed.description import TestbedDescription
from ..testbed.refapi import ReferenceApi
from ..util.events import Simulator
from ..util.rng import RngStreams

__all__ = ["Finding", "TestOutcome", "CheckContext", "CheckFamily"]


@dataclass(frozen=True)
class Finding:
    """One issue a test script reports."""

    kind_hint: Optional[FaultKind]
    target: str  # node uid, cluster, site or image@cluster
    message: str

    def __str__(self) -> str:
        hint = self.kind_hint.value if self.kind_hint else "unclassified"
        return f"[{hint}] {self.target}: {self.message}"


@dataclass
class TestOutcome:
    """Result of one test configuration run."""

    family: str
    config: dict[str, Any]
    passed: bool
    findings: list[Finding] = field(default_factory=list)
    #: True when the test could not obtain testbed resources at all
    #: (slide 17: the build is then marked UNSTABLE, not FAILURE).
    resources_blocked: bool = False
    log: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.log.append(message)


@dataclass
class CheckContext:
    """Everything a test script may touch (the user-visible testbed)."""

    sim: Simulator
    testbed: TestbedDescription
    refapi: ReferenceApi
    machines: MachinePark
    services: ServiceHealth
    oar: OarServer
    oardb: OarDatabase
    kadeploy: Kadeploy
    kavlan: KavlanManager
    kwapi: Kwapi
    rngs: RngStreams

    def rng(self, family: str):
        return self.rngs.stream(f"check-{family}")


class CheckFamily:
    """Base class for the sixteen test-script families."""

    #: slide-21 name, e.g. "environments".
    name: str = ""
    #: "software" tests take one node per cluster; "hardware" tests take
    #: all nodes of a cluster (slide 16) — the external scheduler uses this.
    kind: str = "software"
    #: Walltime requested for the testbed job, seconds.
    walltime_s: float = 1800.0
    #: Nodes the test reserves: 0 (out-of-band), an int, or "ALL" (whole
    #: cluster) -- the external scheduler checks availability against this.
    nodes_needed: object = 0

    def configurations(self, testbed: TestbedDescription) -> list[dict[str, Any]]:
        """The coverage cells of this family (slide-21 counts)."""
        raise NotImplementedError

    def run(self, ctx: CheckContext, config: dict[str, Any]):
        """Process generator returning a :class:`TestOutcome`."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------

    def _outcome(self, config: dict[str, Any]) -> TestOutcome:
        return TestOutcome(family=self.name, config=config, passed=True)

    def reserve(self, ctx: CheckContext, request: str):
        """Immediate-or-cancel reservation (the paper's contract).

        Returns the running job, or None when resources were not available
        right now — the caller reports ``resources_blocked``.
        """
        job = ctx.oar.submit(request, user="testframework",
                             immediate=True)
        if job.state == JobState.CANCELLED:
            return None
        yield job.started_event
        return job

    @staticmethod
    def release(ctx: CheckContext, job: Optional[Job]) -> None:
        if job is not None and job.state == JobState.RUNNING:
            ctx.oar.release(job)

    def g5k_checks_findings(self, ctx: CheckContext, node_uid: str) -> list[Finding]:
        """Run g5k-checks on one node, converting mismatches to findings."""
        report = run_g5k_checks(ctx.machines[node_uid], ctx.refapi, now=ctx.sim.now)
        return [
            Finding(kind_hint=m.kind_hint, target=node_uid, message=str(m))
            for m in report.mismatches
        ]
