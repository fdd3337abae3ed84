"""Jenkins-shaped CI server: jobs, builds, queue, matrix projects."""

from .job import Build, BuildStatus, JobDefinition
from .matrix import MatrixProject, matrix_reloaded
from .server import JenkinsServer

__all__ = [
    "BuildStatus",
    "Build",
    "JobDefinition",
    "JenkinsServer",
    "MatrixProject",
    "matrix_reloaded",
]
