"""The Jenkins-shaped automation server.

Slide 20 lists why Jenkins was the right substrate, and this class
implements exactly those benefits:

* *clean execution environment for scripts* — every build runs its runner
  generator from scratch;
* *queue to control overloading* — builds wait for one of ``executors``
  slots (FIFO);
* *access control for users to trigger jobs manually* — :meth:`trigger`
  takes a ``cause`` (who/what triggered);
* *long-term storage of results history and test logs* — every
  :class:`~repro.ci.job.Build` with its log is kept on the job.
"""

from __future__ import annotations

from typing import Any, Optional

from ..util.errors import CiError
from ..util.events import Interrupt, Process, Simulator
from .job import Build, BuildStatus, JobDefinition, Runner

__all__ = ["JenkinsServer"]


class JenkinsServer:
    """Job registry + build queue + executor pool."""

    def __init__(self, sim: Simulator, executors: int = 8):
        self.sim = sim
        self.jobs: dict[str, JobDefinition] = {}
        self.executors = sim.resource(executors)
        self._build_procs: dict[Build, Process] = {}

    # -- job management -----------------------------------------------------

    def register_job(self, name: str, runner: Runner, description: str = "",
                     timeout_s: float = 4 * 3600.0) -> JobDefinition:
        if name in self.jobs:
            raise CiError(f"job already registered: {name}")
        job = JobDefinition(name=name, runner=runner, description=description,
                            timeout_s=timeout_s)
        self.jobs[name] = job
        return job

    def job(self, name: str) -> JobDefinition:
        try:
            return self.jobs[name]
        except KeyError:
            raise CiError(f"unknown job: {name}") from None

    # -- triggering -----------------------------------------------------------

    def trigger(self, job_name: str, parameters: Optional[dict[str, Any]] = None,
                cause: str = "manual") -> Build:
        """Enqueue one build; returns immediately with the queued build."""
        job = self.job(job_name)
        build = Build(
            number=job.next_build_number,
            job_name=job_name,
            parameters=dict(parameters or {}),
            cause=cause,
            queued_at=self.sim.now,
            done_event=self.sim.event(),
        )
        job.builds.append(build)
        proc = self.sim.process(self._execute(job, build),
                                name=f"build-{job_name}-{build.number}")
        self._build_procs[build] = proc
        return build

    def abort(self, build: Build) -> None:
        """Abort a queued or running build."""
        if build.finished:
            raise CiError(f"build already finished: {build}")
        proc = self._build_procs.get(build)
        if proc is not None and proc.alive:
            proc.interrupt("aborted")

    # -- execution -------------------------------------------------------------

    def _execute(self, job: JobDefinition, build: Build):
        request = self.executors.request()
        try:
            yield request
        except Interrupt:
            self.executors.cancel(request)  # still queued: just withdraw
            build.log_line(self.sim.now, "aborted while queued")
            self._finish(build, BuildStatus.ABORTED)
            self._build_procs.pop(build, None)
            return
        build.started_at = self.sim.now
        build.log_line(self.sim.now, f"started on executor (cause: {build.cause})")
        runner_proc = self.sim.process(job.runner(build))
        watchdog = self.sim.timeout(job.timeout_s, "timeout")
        try:
            outcome = yield self.sim.any_of([runner_proc, watchdog])
            if runner_proc.triggered and runner_proc in outcome:
                # The runner won the race: lazily drop the watchdog's heap
                # entry instead of leaving an hours-long dead timer behind.
                watchdog.cancel()
                status = outcome[runner_proc]
                if not isinstance(status, BuildStatus):
                    build.log_line(self.sim.now,
                                   f"runner returned {status!r}, treating as FAILURE")
                    status = BuildStatus.FAILURE
            else:
                runner_proc.interrupt("timeout")
                build.log_line(self.sim.now, f"timed out after {job.timeout_s}s")
                status = BuildStatus.ABORTED
            self._finish(build, status)
        except Interrupt:
            watchdog.cancel()  # no-op if it already fired
            if runner_proc.alive:
                runner_proc.interrupt("aborted")
            build.log_line(self.sim.now, "aborted")
            self._finish(build, BuildStatus.ABORTED)
        finally:
            self.executors.release(request)
            self._build_procs.pop(build, None)

    def _finish(self, build: Build, status: BuildStatus) -> None:
        build.finished_at = self.sim.now
        build.status = status
        build.log_line(self.sim.now, f"finished: {status.value}")
        build.done_event.succeed(build)
