"""OAR-shaped resource manager: request language, database, scheduler."""

from .database import OarDatabase, properties_from_description
from .gantt import Gantt
from .jobs import Job, JobState
from .request import (
    ALL_NODES,
    BoolOp,
    Comparison,
    JobRequest,
    NotOp,
    PropExpr,
    format_walltime,
    parse_expression,
    parse_request,
)
from .server import OarServer
from .traces import (
    TraceRecord,
    TraceRecorder,
    TraceReplayConfig,
    TraceReplayGenerator,
    WorkloadTrace,
    load_trace,
    parse_swf,
    record_scenario,
    save_trace,
)
from .workload import WorkloadConfig, WorkloadGenerator, WorkloadSource

__all__ = [
    "ALL_NODES",
    "PropExpr",
    "Comparison",
    "BoolOp",
    "NotOp",
    "JobRequest",
    "parse_expression",
    "parse_request",
    "format_walltime",
    "OarDatabase",
    "properties_from_description",
    "Gantt",
    "Job",
    "JobState",
    "OarServer",
    "TraceRecord",
    "TraceRecorder",
    "TraceReplayConfig",
    "TraceReplayGenerator",
    "WorkloadTrace",
    "load_trace",
    "parse_swf",
    "record_scenario",
    "save_trace",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadSource",
]
