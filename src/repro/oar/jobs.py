"""OAR job objects and lifecycle states."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..util.events import Event
from .request import JobRequest

__all__ = ["JobState", "Job"]


class JobState(enum.Enum):
    WAITING = "Waiting"  # submitted, no reservation yet
    SCHEDULED = "Scheduled"  # has a (possibly future) reservation
    RUNNING = "Running"
    TERMINATED = "Terminated"
    ERROR = "Error"
    CANCELLED = "Cancelled"  # immediate job that could not start at once


@dataclass(eq=False)
class Job:
    """One OAR job.

    ``auto_duration`` is how long the workload actually runs (user jobs
    finish before their walltime); ``None`` means the job runs until the
    holder calls :meth:`repro.oar.server.OarServer.release` or the walltime
    kill fires (test jobs are driven this way).
    """

    job_id: int
    user: str
    request: JobRequest
    submitted_at: float
    immediate: bool = False
    auto_duration: Optional[float] = None
    state: JobState = JobState.WAITING
    scheduled_start: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Node uids, filled when scheduled (in database order; a grow
    #: appends its nodes).
    assignment: tuple[str, ...] = ()
    #: Node mask of the last reservation (exact while SCHEDULED): a
    #: re-placement that lands on the same start and mask keeps
    #: ``assignment`` and the pending start timer.
    reserved_mask: int = 0
    killed_by_walltime: bool = False
    #: Triggered when the job actually starts (value: the job).
    started_event: Optional[Event] = None
    #: Triggered when the job ends in any way (value: the job).
    done_event: Optional[Event] = None
    #: Monotonic generation counter guarding stale timer callbacks.
    generation: int = field(default=0)
    #: Remaining work in node-seconds at ``mass_accrued_at`` — populated on
    #: the first grow/shrink of a running job with an ``auto_duration``
    #: (rigid jobs never track mass, keeping their timers byte-identical).
    mass_remaining: Optional[float] = None
    mass_accrued_at: Optional[float] = None
    #: Times this job was grown / shrunk by a malleable policy.
    grow_count: int = 0
    shrink_count: int = 0

    # -- malleability ----------------------------------------------------------

    @property
    def malleable(self) -> bool:
        """True for jobs declaring a real width range."""
        return self.request.malleable

    @property
    def min_nodes(self) -> int:
        """Smallest width the job may shrink to (its width when rigid)."""
        lo = self.request.min_nodes
        return lo if isinstance(lo, int) else self.width

    @property
    def max_nodes(self) -> int:
        """Largest width the job may grow to (its width when rigid)."""
        hi = self.request.max_nodes
        return hi if isinstance(hi, int) else self.width

    @property
    def width(self) -> int:
        """Current allocated width (preferred width before assignment;
        0 for an unassigned ``nodes=ALL`` job)."""
        if self.assignment:
            return len(self.assignment)
        count = self.request.count
        return count if isinstance(count, int) else 0

    @property
    def walltime_s(self) -> float:
        return self.request.walltime_s

    @property
    def wait_time_s(self) -> Optional[float]:
        return None if self.started_at is None else self.started_at - self.submitted_at

    @property
    def run_time_s(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def finished(self) -> bool:
        return self.state in (JobState.TERMINATED, JobState.ERROR, JobState.CANCELLED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.job_id} {self.state.value} {self.request}>"
