"""Bug tracker and operator team model.

Slide 11's problem is that *users* rarely report bugs; the framework files
them instead, and "testbed operators would be well positioned" to fix
them.  Here:

* :class:`BugTracker` turns failing test outcomes into deduplicated bug
  reports.  A finding is matched against the ground-truth fault registry
  (same root-cause kind, target on the same node/cluster/site); findings
  with no matching fault become *unexplained* reports — transient noise
  that operators investigate and close without a fix;
* :class:`OperatorTeam` models test-driven operations (slide 23): every
  new bug gets an investigation+fix latency drawn from a long-tailed
  lognormal (hardware RMAs take weeks); fixing a bug reverts the fault.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..checksuite.base import Finding, TestOutcome
from ..faults.catalog import FaultContext, FaultInstance, FaultKind, Severity
from ..faults.injector import FaultInjector, GroundTruth
from ..util.events import Simulator
from ..util.rng import RngStreams
from ..util.simclock import DAY

__all__ = ["BugStatus", "Bug", "BugTracker", "OperatorTeam"]


class BugStatus(enum.Enum):
    OPEN = "open"
    FIXED = "fixed"
    #: Investigated, no root cause found (transient / test noise).
    CLOSED_UNEXPLAINED = "closed-unexplained"


@dataclass(eq=False)
class Bug:
    bug_id: int
    filed_at: float
    family: str
    finding: Finding
    fault: Optional[FaultInstance]
    status: BugStatus = BugStatus.OPEN
    closed_at: Optional[float] = None

    @property
    def is_open(self) -> bool:
        return self.status == BugStatus.OPEN

    @property
    def explained(self) -> bool:
        return self.fault is not None


class BugTracker:
    """Deduplicating bug filing over ground truth."""

    def __init__(self, sim: Simulator, ground_truth: GroundTruth,
                 fault_ctx: FaultContext):
        self.sim = sim
        self.ground_truth = ground_truth
        self.ctx = fault_ctx
        self.bugs: list[Bug] = []
        #: Called with each new bug; the operator team sets it.
        self.on_filed: Optional[Callable[[Bug], None]] = None
        self._next_id = 1
        self._open_fault_bugs: dict[int, Bug] = {}  # fault_id -> open bug
        self._open_unexplained: dict[tuple, Bug] = {}

    # -- filing ---------------------------------------------------------------

    def file_from_outcome(self, outcome: TestOutcome) -> list[Bug]:
        """File (deduplicated) bugs for every finding of a failed test."""
        filed = []
        for finding in outcome.findings:
            bug = self._file_one(outcome.family, finding)
            if bug is not None:
                filed.append(bug)
        return filed

    def _file_one(self, family: str, finding: Finding) -> Optional[Bug]:
        fault = self._match(finding)
        if fault is not None:
            self.ground_truth.mark_detected(fault, self.sim.now, family)
            if fault.fault_id in self._open_fault_bugs:
                return None  # already filed, still open
            bug = self._new_bug(family, finding, fault)
            self._open_fault_bugs[fault.fault_id] = bug
            return bug
        key = (finding.kind_hint, finding.target)
        if key in self._open_unexplained:
            return None
        bug = self._new_bug(family, finding, None)
        self._open_unexplained[key] = bug
        return bug

    def _new_bug(self, family: str, finding: Finding,
                 fault: Optional[FaultInstance]) -> Bug:
        bug = Bug(bug_id=self._next_id, filed_at=self.sim.now, family=family,
                  finding=finding, fault=fault)
        self._next_id += 1
        self.bugs.append(bug)
        if self.on_filed is not None:
            self.on_filed(bug)
        return bug

    #: A symptom of the key kind can be caused by any of the value kinds
    #: (the operator's investigation finds the deeper root cause): a node
    #: that fails a reboot/deployment may be flaky itself, but also the
    #: victim of a degraded deployment service or a kernel boot race.
    _RELATED_KINDS = {
        FaultKind.RANDOM_REBOOTS: (FaultKind.DEPLOY_DEGRADED,
                                   FaultKind.KERNEL_BOOT_RACE),
        FaultKind.DEPLOY_DEGRADED: (FaultKind.KERNEL_BOOT_RACE,),
    }

    def _match(self, finding: Finding) -> Optional[FaultInstance]:
        """Find the active fault a finding points at.

        A hint of kind K on target T matches an active fault of kind K —
        or a related root-cause kind — whose target is T itself, T's
        cluster, or T's site: test scripts report the symptom location,
        faults may be scoped wider.
        """
        if finding.kind_hint is None:
            return None
        targets = [finding.target]
        if finding.target in self.ctx.machines:
            machine = self.ctx.machines[finding.target]
            targets += [machine.cluster_uid, machine.site_uid]
        elif finding.target in self.ctx.clusters:
            targets.append(self.ctx.site_of_cluster(finding.target))
        kinds = (finding.kind_hint,) + self._RELATED_KINDS.get(finding.kind_hint, ())
        for kind in kinds:
            for target in targets:
                fault = self.ground_truth.active_matching(kind, target)
                if fault is not None:
                    return fault
        return None

    # -- closing -----------------------------------------------------------------

    def close(self, bug: Bug, status: BugStatus) -> None:
        if not bug.is_open:
            return
        bug.status = status
        bug.closed_at = self.sim.now
        if bug.fault is not None:
            self._open_fault_bugs.pop(bug.fault.fault_id, None)
        else:
            self._open_unexplained.pop(
                (bug.finding.kind_hint, bug.finding.target), None)

    # -- statistics ---------------------------------------------------------------

    @property
    def filed_count(self) -> int:
        return len(self.bugs)

    @property
    def fixed_count(self) -> int:
        return sum(1 for b in self.bugs if b.status == BugStatus.FIXED)

    @property
    def open_count(self) -> int:
        return sum(1 for b in self.bugs if b.is_open)

    @property
    def unexplained_count(self) -> int:
        return sum(1 for b in self.bugs if not b.explained)

    def time_to_fix(self) -> list[float]:
        return [b.closed_at - b.filed_at for b in self.bugs
                if b.status == BugStatus.FIXED]


#: Investigation+fix latency medians by severity (operators triage).
_FIX_MEDIAN_DAYS = {
    Severity.AVAILABILITY: 4.0,
    Severity.CORRECTNESS: 6.0,
    Severity.SERVICE: 6.0,
    Severity.PERFORMANCE: 10.0,  # needs vendor calls, BIOS updates, RMAs
}

#: Long-tailed latencies: sigma of the lognormal (in log space).
_FIX_SIGMA = 0.9

#: Unexplained reports are investigated and closed quickly.
_UNEXPLAINED_CLOSE_DAYS = 2.0


class OperatorTeam:
    """Fixes bugs after a severity-dependent latency."""

    def __init__(self, sim: Simulator, tracker: BugTracker,
                 injector: FaultInjector, rng_streams: RngStreams,
                 speedup: float = 1.0):
        self.sim = sim
        self.tracker = tracker
        self.injector = injector
        self._rng = rng_streams.stream("operators")
        #: >1 = faster fixes (test-driven operations improve over time).
        self.speedup = speedup
        tracker.on_filed = self.handle_new_bug

    def handle_new_bug(self, bug: Bug) -> None:
        if bug.fault is None:
            delay = float(self._rng.exponential(_UNEXPLAINED_CLOSE_DAYS * DAY))
            self.sim.call_in(delay, self._close_unexplained, bug)
            return
        median_days = _FIX_MEDIAN_DAYS[bug.fault.severity] / self.speedup
        delay = float(self._rng.lognormal(np.log(median_days * DAY), _FIX_SIGMA))
        self.sim.call_in(delay, self._fix, bug)

    def _close_unexplained(self, bug: Bug) -> None:
        self.tracker.close(bug, BugStatus.CLOSED_UNEXPLAINED)

    def _fix(self, bug: Bug) -> None:
        if not bug.is_open:
            return
        if bug.fault is not None and bug.fault.active:
            self.injector.fix(bug.fault)
        self.tracker.close(bug, BugStatus.FIXED)
