"""REST-shaped read-only API over the Jenkins server.

Slide 18: the external status page "uses Jenkins' REST API".  The methods
here return plain JSON-serializable dicts shaped like Jenkins'
``/api/json`` endpoints, so the analysis layer depends only on this
interface, never on server internals — exactly the coupling the real
system has.
"""

from __future__ import annotations

from typing import Any, Optional

from .job import Build
from .server import JenkinsServer

__all__ = ["JenkinsApi"]


def _build_doc(build: Build) -> dict[str, Any]:
    return {
        "number": build.number,
        "result": build.status.value if build.status else None,
        "building": build.running,
        "parameters": dict(build.parameters),
        "cause": build.cause,
        "queued_at": build.queued_at,
        "timestamp": build.started_at,
        "duration_s": build.duration_s,
    }


class JenkinsApi:
    """Read-only JSON views (the ``/api/json`` surface)."""

    def __init__(self, server: JenkinsServer):
        self._server = server

    def build_info(self, job_name: str, number: int) -> dict[str, Any]:
        job = self._server.job(job_name)
        for build in job.builds:
            if build.number == number:
                doc = _build_doc(build)
                doc["log"] = list(build.log)
                return doc
        from ..util.errors import CiError

        raise CiError(f"{job_name} has no build #{number}")

    def builds_matching(self, job_name: str,
                        parameters: Optional[dict[str, Any]] = None,
                        since: float = 0.0) -> list[dict[str, Any]]:
        """Finished builds filtered by parameter subset and queue time."""
        job = self._server.job(job_name)
        out = []
        for build in job.builds:
            if not build.finished or build.queued_at < since:
                continue
            if parameters and any(build.parameters.get(k) != v
                                  for k, v in parameters.items()):
                continue
            out.append(_build_doc(build))
        return out
