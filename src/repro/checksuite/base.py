"""Base machinery for the test-script families (slide 21).

Design follows the paper's stated philosophy — *"Keep It Simple, Stupid"*:
each family is a small class with a ``configurations`` list (its cells in
the coverage matrix), its reservation and a ``check`` body that exercises the testbed
through exactly the interfaces a user would (OAR, Kadeploy, KaVLAN, the
monitoring API, ...) and reports *actionable findings*: "exhibit issues,
but also provide sufficient information to testbed operators to understand
and fix the issue".
:meth:`CheckFamily.run` owns the one reservation lifecycle they all share.

A finding carries a root-cause hint (:class:`~repro.faults.FaultKind`) and
a target; the bug tracker later matches findings against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Union

import numpy as np

from ..checks.g5kchecks import run_g5k_checks
from ..faults.catalog import FaultKind
from ..faults.services import ServiceHealth
from ..kadeploy.deployment import Kadeploy
from ..kavlan.manager import KavlanManager
from ..monitoring.probes import Kwapi
from ..nodes.machine import MachinePark
from ..oar.database import OarDatabase
from ..oar.jobs import Job, JobState
from ..oar.request import Comparison, JobRequest, PropExpr
from ..oar.server import OarServer
from ..testbed.description import TestbedDescription
from ..testbed.refapi import ReferenceApi
from ..util.events import Event, Simulator
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

    def rng(self, family: str) -> np.random.Generator:
        return self.rngs.stream(f"check-{family}")


class CheckFamily:
    """Base class for the sixteen test-script families.

    A family declares its cells (:meth:`configurations`), what it reserves
    (``nodes_needed``, ``walltime_s``) and its :meth:`check` body;
    :meth:`run` does the rest.
    """

    #: slide-21 name, e.g. "environments".
    name: str = ""
    #: "software" tests take one node per cluster; "hardware" tests take
    #: all nodes of a cluster (slide 16) — the external scheduler uses this.
    kind: str = "software"
    #: Nodes the test reserves: 0 (out-of-band), an int, or "ALL" (whole
    #: target) -- the external scheduler checks availability against this
    #: and :meth:`run` asks OAR for exactly this.
    nodes_needed: Union[int, str] = 0
    #: Walltime of the testbed job, seconds (families that reserve only).
    walltime_s: float

    def configurations(self, testbed: TestbedDescription) -> list[dict[str, Any]]:
        """The coverage cells of this family (slide-21 counts)."""
        raise NotImplementedError

    def check(self, ctx: CheckContext, outcome: TestOutcome,
              job: Optional[Job]) -> Generator[Event, Any, None]:
        """Process-generator body: exercise the testbed with the running
        ``job`` (None for out-of-band families) and add findings to
        ``outcome``."""
        raise NotImplementedError

    def target(self, ctx: CheckContext, outcome: TestOutcome) -> PropExpr:
        """OAR property filter selecting the cell's candidate nodes."""
        config = outcome.config
        if "cluster" in config:
            return Comparison("cluster", "=", config["cluster"])
        return Comparison("site", "=", config["site"])

    def run(self, ctx: CheckContext,
            config: dict[str, Any]) -> Generator[Event, Any, TestOutcome]:
        """Process generator running one cell; returns its outcome.

        The reservation contract of slide 17: ask OAR, immediate-or-cancel,
        for ``nodes_needed`` nodes of the cell's target for ``walltime_s``.
        A job that cannot start now gives the blocked outcome (the build
        turns UNSTABLE); otherwise :meth:`check` runs with the job, which
        is released whatever happens.  Out-of-band families
        (``nodes_needed == 0``) run :meth:`check` with no job.
        """
        outcome = TestOutcome(family=self.name, config=config, passed=False)
        if not self.nodes_needed:
            yield from self.check(ctx, outcome, None)
        else:
            request = JobRequest(self.target(ctx, outcome), self.nodes_needed,
                                 walltime_s=float(round(self.walltime_s)))
            job = ctx.oar.submit(request, user="testframework", immediate=True)
            if job.state == JobState.CANCELLED:
                outcome.resources_blocked = True
                return outcome
            started = job.started_event
            assert started is not None  # submit() gives every job one
            yield started
            try:
                yield from self.check(ctx, outcome, job)
            finally:
                if job.state == JobState.RUNNING:
                    ctx.oar.release(job)
        outcome.passed = not outcome.findings
        return outcome

    def g5k_checks_findings(self, ctx: CheckContext, node_uid: str) -> list[Finding]:
        """Run g5k-checks on one node, converting mismatches to findings."""
        report = run_g5k_checks(ctx.machines[node_uid], ctx.refapi, now=ctx.sim.now)
        return [
            Finding(kind_hint=m.kind_hint, target=node_uid, message=str(m))
            for m in report.mismatches
        ]
