"""Jenkins job and build objects."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..util.events import Event

__all__ = ["BuildStatus", "Build", "JobDefinition"]


class BuildStatus(enum.Enum):
    SUCCESS = "SUCCESS"
    #: The paper's convention: a build whose testbed job could not be
    #: scheduled immediately is cancelled and marked UNSTABLE (slide 17).
    UNSTABLE = "UNSTABLE"
    FAILURE = "FAILURE"
    ABORTED = "ABORTED"


@dataclass(eq=False)
class Build:
    """One execution of a job with concrete parameters."""

    number: int
    job_name: str
    parameters: dict[str, Any]
    cause: str
    queued_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    status: Optional[BuildStatus] = None  # None while queued/running
    #: Triggered when the build completes (value: the build).
    done_event: Optional[Event] = None

    @property
    def running(self) -> bool:
        return self.started_at is not None and self.finished_at is None

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def duration_s(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def wait_time_s(self) -> Optional[float]:
        return None if self.started_at is None else self.started_at - self.queued_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = self.status.value if self.status else "PENDING"
        return f"<Build {self.job_name}#{self.number} {self.parameters} {status}>"


#: A job runner is a generator function: ``runner(build)`` yields simulation
#: events and returns the final :class:`BuildStatus`.
Runner = Callable[[Build], Any]


@dataclass(eq=False)
class JobDefinition:
    """A registered Jenkins job."""

    name: str
    runner: Runner
    description: str = ""
    #: Upper bound on build runtime; exceeded -> ABORTED (Jenkins timeout).
    timeout_s: float = 4 * 3600.0
    builds: list[Build] = field(default_factory=list)

    @property
    def next_build_number(self) -> int:
        return len(self.builds) + 1

    def last_build(self, parameters: Optional[dict[str, Any]] = None) -> Optional[Build]:
        """Most recent finished build (optionally for exact parameters)."""
        for build in reversed(self.builds):
            if not build.finished:
                continue
            if parameters is None or build.parameters == parameters:
                return build
        return None
