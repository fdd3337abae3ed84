"""Trace-driven workloads: record, parse, and replay job arrival traces.

The synthetic Poisson generator gives every scenario the same statistical
shape of load.  Real scheduling studies evaluate against *workload traces*
— recorded streams of (submit time, size, walltime, runtime) — which is a
whole new scenario-diversity axis: replay any recorded run, any published
cluster trace, time-compressed or load-scaled variants of either.

Pieces:

* :class:`TraceRecord` / :class:`WorkloadTrace` — the in-memory model;
* :func:`parse_swf` — parser for the Standard Workload Format used by the
  Parallel Workloads Archive (``;`` comments, 18 whitespace-separated
  fields per job);
* JSONL native format (``load_trace`` / ``save_trace``) — one JSON
  document per line, torn-tail tolerant like every other archive here;
* :class:`TraceReplayGenerator` — a
  :class:`~repro.oar.workload.WorkloadSource` that submits the recorded
  jobs at their timestamps, with ``time_scale`` and ``load_scale`` knobs;
* :class:`TraceRecorder` — subscribes to any workload source and exports
  the run back to a trace, so Poisson runs become replayable fixtures;
* :class:`TraceReplayConfig` — the frozen declarative knob a
  :class:`~repro.scenarios.ScenarioSpec` carries to select trace replay.

Replay determinism: a trace fully determines the submission stream, so the
same trace + spec + seed produces byte-identical campaign reports.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional, Union

from ..util.errors import ParseError
from ..util.serialization import iter_jsonl
from .jobs import Job
from .request import Comparison, JobRequest
from .server import OarServer
from .workload import WorkloadSource

__all__ = [
    "TraceRecord",
    "WorkloadTrace",
    "TraceReplayConfig",
    "TraceReplayGenerator",
    "TraceRecorder",
    "parse_swf",
    "load_trace",
    "save_trace",
    "record_from_job",
    "record_scenario",
    "builtin_trace_names",
]

#: Identifies the JSONL native format's header line.
_FORMAT_TAG = "repro-trace-v1"

#: Bundled traces live next to this module; referencing one by bare name
#: (e.g. ``"tiny-g5k"``) keeps presets machine-independent.
_BUILTIN_DIR = os.path.join(os.path.dirname(__file__), "builtin_traces")

#: Most trace-file versions :meth:`TraceReplayConfig.load` keeps; past it
#: the oldest entry goes.
_TRACE_MEMO_MAX = 8

#: ``(absolute path, st_mtime_ns, st_size)`` -> the trace read from that
#: file version.  Traces are frozen, so runs share them.
_trace_memo: dict[tuple[str, int, int], WorkloadTrace] = {}
#: Serialises inserts and evictions: service sessions build in threads.
_trace_memo_lock = threading.Lock()


@dataclass(frozen=True)
class TraceRecord:
    """One recorded job: when it arrived, what it asked for, how it ran.

    ``nodes`` is the *requested* size (SWF field 8, the PWA convention,
    falling back to allocated when the archive row carries ``-1``);
    ``alloc_nodes`` carries the *allocated* size (SWF field 5) when it is
    known — the requested/allocated distinction is what lets an imported
    trace express elastic widths.
    """

    submit_s: float
    nodes: int
    walltime_s: float
    #: Actual run time (the job finishes early when < walltime).
    run_s: float
    cluster: Optional[str] = None
    user: str = ""
    job_id: Optional[int] = None
    #: Allocated processors (SWF field 5); ``None`` when unknown (-1).
    alloc_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"record needs nodes >= 1, got {self.nodes}")
        if self.walltime_s <= 0:
            raise ValueError(f"record needs walltime > 0, got {self.walltime_s}")
        if self.alloc_nodes is not None and self.alloc_nodes < 1:
            raise ValueError(
                f"record needs alloc_nodes >= 1 or None, got {self.alloc_nodes}")

    def to_doc(self) -> dict:
        doc = {"submit_s": self.submit_s, "nodes": self.nodes,
               "walltime_s": self.walltime_s, "run_s": self.run_s}
        if self.cluster:
            doc["cluster"] = self.cluster
        if self.user:
            doc["user"] = self.user
        if self.job_id is not None:
            doc["job_id"] = self.job_id
        if self.alloc_nodes is not None:
            doc["alloc_nodes"] = self.alloc_nodes
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "TraceRecord":
        try:
            alloc = doc.get("alloc_nodes")
            return cls(
                submit_s=float(doc["submit_s"]),
                nodes=int(doc["nodes"]),
                walltime_s=float(doc["walltime_s"]),
                run_s=float(doc.get("run_s", doc["walltime_s"])),
                cluster=doc.get("cluster"),
                user=doc.get("user", ""),
                job_id=doc.get("job_id"),
                alloc_nodes=int(alloc) if alloc is not None else None,
            )
        except KeyError as exc:
            raise ValueError(
                f"trace record is missing the {exc.args[0]!r} field: {doc!r}"
            ) from None


@dataclass(frozen=True)
class WorkloadTrace:
    """An ordered collection of :class:`TraceRecord`."""

    records: tuple[TraceRecord, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def span_s(self) -> float:
        """Time between the first and last submission."""
        if not self.records:
            return 0.0
        times = [r.submit_s for r in self.records]
        return max(times) - min(times)

    def sorted(self) -> "WorkloadTrace":
        """Records in submission order (stable for equal timestamps)."""
        ordered = tuple(sorted(self.records, key=lambda r: r.submit_s))
        return WorkloadTrace(ordered, name=self.name)

    def rebased(self) -> "WorkloadTrace":
        """Shift submission times so the earliest becomes 0."""
        if not self.records:
            return self
        t0 = min(r.submit_s for r in self.records)
        if t0 == 0.0:
            return self
        shifted = tuple(
            TraceRecord(r.submit_s - t0, r.nodes, r.walltime_s, r.run_s,
                        r.cluster, r.user, r.job_id, r.alloc_nodes)
            for r in self.records)
        return WorkloadTrace(shifted, name=self.name)

    def scaled(self, time_scale: float = 1.0,
               load_scale: float = 1.0) -> "WorkloadTrace":
        """A variant with compressed/stretched time and thinned/duplicated
        load.

        ``time_scale`` multiplies every submission timestamp: 0.5 packs the
        same jobs into half the wall-clock (twice the arrival rate); job
        durations are untouched.  ``load_scale`` changes how many jobs
        replay: 2.0 submits every job twice, 0.5 keeps every other job —
        deterministic decimation/duplication, no RNG involved.
        """
        if time_scale <= 0 or load_scale <= 0:
            raise ValueError("time_scale and load_scale must be positive")
        out: list[TraceRecord] = []
        for i, r in enumerate(self.records):
            copies = math.floor((i + 1) * load_scale) - math.floor(i * load_scale)
            for copy in range(copies):
                out.append(TraceRecord(
                    r.submit_s * time_scale, r.nodes, r.walltime_s, r.run_s,
                    r.cluster, r.user, r.job_id if copy == 0 else None,
                    r.alloc_nodes))
        return WorkloadTrace(tuple(out), name=self.name)

    def stats(self) -> dict:
        """Summary numbers (the CLI's ``trace inspect`` view)."""
        if not self.records:
            return {"jobs": 0, "span_s": 0.0}
        nodes = [r.nodes for r in self.records]
        node_seconds = sum(r.nodes * min(r.run_s, r.walltime_s)
                           for r in self.records)
        span = self.span_s
        return {
            "jobs": len(self.records),
            "span_s": span,
            "mean_interarrival_s": span / max(len(self.records) - 1, 1),
            "nodes_min": min(nodes),
            "nodes_max": max(nodes),
            "nodes_mean": sum(nodes) / len(nodes),
            "node_seconds": node_seconds,
            "clusters": sorted({r.cluster for r in self.records if r.cluster}),
            "users": len({r.user for r in self.records if r.user}),
        }


# -- declarative knob ----------------------------------------------------------


@dataclass(frozen=True)
class TraceReplayConfig:
    """Declarative trace-replay selection for a ``ScenarioSpec``.

    ``path`` is a trace file (SWF or JSONL, by extension) or the bare name
    of a bundled trace (see :func:`builtin_trace_names`).  The scales match
    :meth:`WorkloadTrace.scaled`.
    """

    path: str = "tiny-g5k"
    time_scale: float = 1.0
    load_scale: float = 1.0
    #: Shift the trace so its first submission lands at simulation start.
    rebase: bool = True
    #: Elastic replay: widen each job's request into a malleable range
    #: ``lo..preferred..hi`` with ``lo = nodes * elastic_min_scale`` and
    #: ``hi = nodes * elastic_max_scale``.  The defaults (both 1.0) replay
    #: rigid requests byte-identically.
    elastic_min_scale: float = 1.0
    elastic_max_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {self.time_scale}")
        if self.load_scale <= 0:
            raise ValueError(f"load_scale must be positive, got {self.load_scale}")
        if not 0 < self.elastic_min_scale <= 1.0:
            raise ValueError(
                f"elastic_min_scale must be in (0, 1], got {self.elastic_min_scale}")
        if self.elastic_max_scale < 1.0:
            raise ValueError(
                f"elastic_max_scale must be >= 1, got {self.elastic_max_scale}")

    def load(self) -> WorkloadTrace:
        """The trace at ``path``, read once per version of its file.

        Presets replay the same file in every run, so the frozen trace is
        kept under the file's absolute path, ``st_mtime_ns`` and
        ``st_size``; a file rewritten since is read again.
        """
        resolved = os.path.abspath(_resolve_trace_path(self.path))
        st = os.stat(resolved)
        key = (resolved, st.st_mtime_ns, st.st_size)
        trace = _trace_memo.get(key)
        if trace is None:
            trace = load_trace(resolved)
            with _trace_memo_lock:
                if len(_trace_memo) >= _TRACE_MEMO_MAX:
                    del _trace_memo[next(iter(_trace_memo))]
                _trace_memo[key] = trace
        return trace


# -- parsing / persistence -----------------------------------------------------

#: SWF field indices (0-based) — Standard Workload Format, Feitelson et al.
_SWF_SUBMIT = 1
_SWF_RUN = 3
_SWF_ALLOC_PROCS = 4
_SWF_REQ_PROCS = 7
_SWF_REQ_TIME = 8
_SWF_USER = 11
_SWF_FIELDS = 18


def parse_swf(text: str, name: str = "") -> WorkloadTrace:
    """Parse Standard Workload Format text into a :class:`WorkloadTrace`.

    ``;`` starts a comment (the header convention of the Parallel
    Workloads Archive).  Missing values are encoded as ``-1``: requested
    processors fall back to allocated processors, requested time to run
    time.  Jobs with no usable size or time are skipped — partial archive
    rows must not abort a 100k-job trace.
    """
    records: list[TraceRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < _SWF_REQ_TIME + 1:
            raise ParseError(
                f"SWF line {lineno}: expected >= {_SWF_REQ_TIME + 1} of the "
                f"{_SWF_FIELDS} SWF fields, got {len(fields)}", raw, 0)
        try:
            submit = float(fields[_SWF_SUBMIT])
            run = float(fields[_SWF_RUN])
            alloc = int(float(fields[_SWF_ALLOC_PROCS]))
            nodes = int(float(fields[_SWF_REQ_PROCS]))
            if nodes <= 0:
                nodes = alloc
            walltime = float(fields[_SWF_REQ_TIME])
            job_id = int(float(fields[0]))
            user = fields[_SWF_USER] if len(fields) > _SWF_USER else "-1"
        except ValueError as exc:
            raise ParseError(f"SWF line {lineno}: {exc}", raw, 0) from None
        if walltime <= 0:
            walltime = run
        if nodes <= 0 or walltime <= 0:
            continue  # unusable archive row
        records.append(TraceRecord(
            submit_s=submit,
            nodes=nodes,
            walltime_s=walltime,
            run_s=run if run > 0 else walltime,
            user=f"user{user}" if user != "-1" else "",
            job_id=job_id,
            alloc_nodes=alloc if alloc > 0 else None,
        ))
    return WorkloadTrace(tuple(records), name=name)


def trace_to_swf(trace: WorkloadTrace) -> str:
    """Render a trace as SWF text (the interchange direction of
    ``repro-campaign trace convert``)."""
    lines = [f"; repro workload trace {trace.name or '(unnamed)'}",
             f"; jobs: {len(trace)}"]
    for i, r in enumerate(trace.records, start=1):
        fields = [-1] * _SWF_FIELDS
        fields[0] = r.job_id if r.job_id is not None else i
        fields[_SWF_SUBMIT] = int(r.submit_s)
        fields[_SWF_RUN] = int(r.run_s)
        fields[_SWF_ALLOC_PROCS] = (r.alloc_nodes if r.alloc_nodes is not None
                                    else r.nodes)
        fields[_SWF_REQ_PROCS] = r.nodes
        fields[_SWF_REQ_TIME] = int(r.walltime_s)
        if r.user.startswith("user") and r.user[4:].isdigit():
            fields[_SWF_USER] = int(r.user[4:])
        lines.append(" ".join(str(f) for f in fields))
    return "\n".join(lines) + "\n"


def builtin_trace_names() -> list[str]:
    """Names of the traces bundled with the package."""
    if not os.path.isdir(_BUILTIN_DIR):
        return []
    return sorted(f[:-6] for f in os.listdir(_BUILTIN_DIR)
                  if f.endswith(".jsonl"))


def _resolve_trace_path(path: Union[str, "os.PathLike[str]"]) -> str:
    p = os.fspath(path)
    if os.path.exists(p):
        return p
    builtin = os.path.join(_BUILTIN_DIR, f"{p}.jsonl")
    if os.path.sep not in p and os.path.exists(builtin):
        return builtin
    raise FileNotFoundError(
        f"no trace file {p!r} (and no builtin trace of that name; "
        f"builtins: {', '.join(builtin_trace_names()) or 'none'})")


def load_trace(path: Union[str, "os.PathLike[str]"],
               name: str = "") -> WorkloadTrace:
    """Load a trace file: ``.swf`` parses as SWF, anything else as the
    JSONL native format.  A bare name (no separator) falls back to the
    bundled traces."""
    resolved = _resolve_trace_path(path)
    trace_name = name or os.path.splitext(os.path.basename(resolved))[0]
    if resolved.endswith(".swf"):
        with open(resolved, "r", encoding="utf-8") as fh:
            return parse_swf(fh.read(), name=trace_name)
    records = []
    for doc in iter_jsonl(resolved):
        if not isinstance(doc, dict):
            continue
        if doc.get("format") == _FORMAT_TAG:  # header line
            trace_name = doc.get("name") or trace_name
            continue
        records.append(TraceRecord.from_doc(doc))
    return WorkloadTrace(tuple(records), name=trace_name)


def save_trace(trace: WorkloadTrace,
               path: Union[str, "os.PathLike[str]"]) -> None:
    """Write the JSONL native format: a tagged header line, then one
    record per line (append-only friendly, torn-tail tolerant).

    One open + one fsync for the whole file — a per-record
    :func:`append_jsonl` would pay ~100k fsyncs on an archive-sized
    trace, and a full rewrite needs no crash-safe append anyway.
    """
    docs = [{"format": _FORMAT_TAG, "name": trace.name, "jobs": len(trace)}]
    docs.extend(record.to_doc() for record in trace.records)
    with open(path, "wb") as fh:
        for doc in docs:
            line = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                              allow_nan=False)
            fh.write(line.encode("utf-8") + b"\n")
        fh.flush()
        os.fsync(fh.fileno())


# -- recording -----------------------------------------------------------------


def _request_cluster(request: JobRequest) -> Optional[str]:
    """The cluster a ``cluster='x'/...`` request pins, if any."""
    expr = request.expr
    if (isinstance(expr, Comparison) and expr.name == "cluster"
            and expr.op == "="):
        return str(expr.value)
    return None


def record_from_job(job: Job) -> Optional[TraceRecord]:
    """Render one submitted job as a trace record.

    Returns ``None`` for jobs a trace cannot express: an unassigned
    ``nodes=ALL`` request has no concrete size yet.
    """
    count = job.request.count
    nodes = count if isinstance(count, int) else len(job.assignment)
    if nodes < 1:
        return None
    if job.auto_duration is not None:
        run = job.auto_duration
    elif job.run_time_s is not None:
        run = job.run_time_s
    else:
        run = job.walltime_s
    return TraceRecord(
        submit_s=job.submitted_at,
        nodes=nodes,
        walltime_s=job.walltime_s,
        run_s=run,
        cluster=_request_cluster(job.request),
        user=job.user,
        job_id=job.job_id,
    )


class TraceRecorder:
    """Capture every job a :class:`WorkloadSource` submits.

    Attach before the source starts; after the run, :meth:`trace` is a
    replayable fixture of exactly the workload the simulation saw.
    """

    def __init__(self, source: Optional[WorkloadSource] = None, name: str = ""):
        self.name = name
        self._records: list[TraceRecord] = []
        if source is not None:
            self.attach(source)

    def attach(self, source: WorkloadSource) -> None:
        source.on_submit.append(self.record_job)

    def record_job(self, job: Job) -> None:
        record = record_from_job(job)
        if record is not None:
            self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def trace(self) -> WorkloadTrace:
        return WorkloadTrace(tuple(self._records), name=self.name)


def record_scenario(spec, seed: Optional[int] = None,
                    months: Optional[float] = None,
                    name: str = "") -> WorkloadTrace:
    """Run a scenario and export its workload stream as a trace.

    ``spec`` is a :class:`~repro.scenarios.ScenarioSpec` or preset name.
    The recorded trace replays the *workload* side of the run (user jobs),
    not the test jobs — those are re-generated by the scheduler under
    whatever scenario replays the trace.
    """
    from .. import scenarios  # local: avoid a package import cycle
    from ..core.campaign import run_scenario

    if isinstance(spec, str):
        spec = scenarios.get(spec)
    recorder = TraceRecorder(name=name or f"{spec.name}-recorded")
    run_scenario(spec, seed=seed, months=months,
                 on_built=lambda fw: recorder.attach(fw.workload))
    return recorder.trace()


# -- replay --------------------------------------------------------------------


class TraceReplayGenerator(WorkloadSource):
    """Submit a recorded trace's jobs at their timestamps.

    The trace is sorted (and by default rebased to simulation start), then
    time/load scaled.  Records pinned to a cluster the current testbed does
    not have lose the pin (they run wherever nodes are free) and sizes are
    clamped to what the testbed can ever satisfy, so any trace replays on
    any world.
    """

    process_name = "trace-replay"

    def __init__(
        self,
        sim,
        oar: OarServer,
        trace: WorkloadTrace,
        testbed=None,
        time_scale: float = 1.0,
        load_scale: float = 1.0,
        rebase: bool = True,
        elastic_min_scale: float = 1.0,
        elastic_max_scale: float = 1.0,
    ):
        super().__init__(sim, oar)
        self.trace = trace
        self.elastic_min_scale = elastic_min_scale
        self.elastic_max_scale = elastic_max_scale
        prepared = trace.sorted()
        if rebase:
            prepared = prepared.rebased()
        if time_scale != 1.0 or load_scale != 1.0:
            prepared = prepared.scaled(time_scale, load_scale)
        self._records = prepared.records
        if testbed is not None:
            self._cluster_sizes: dict[str, int] = {
                c.uid: c.node_count for c in testbed.iter_clusters()}
            self._total_nodes: Optional[int] = sum(self._cluster_sizes.values())
        else:
            self._cluster_sizes = {}
            self._total_nodes = None

    @classmethod
    def from_config(cls, sim, oar: OarServer, config: TraceReplayConfig,
                    testbed=None) -> "TraceReplayGenerator":
        return cls(sim, oar, config.load(), testbed=testbed,
                   time_scale=config.time_scale,
                   load_scale=config.load_scale, rebase=config.rebase,
                   elastic_min_scale=config.elastic_min_scale,
                   elastic_max_scale=config.elastic_max_scale)

    def _run(self):
        origin = self.sim.now
        for record in self._records:
            delay = origin + record.submit_s - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            if not self._running:
                return
            self.submit_record(record)

    def submit_record(self, record: TraceRecord) -> Job:
        """Build and submit the OAR job one record describes."""
        nodes = record.nodes
        cluster = record.cluster
        if cluster is not None and self._cluster_sizes and \
                cluster not in self._cluster_sizes:
            cluster = None  # unknown cluster: replay anywhere
        if cluster is not None and self._cluster_sizes:
            nodes = min(nodes, self._cluster_sizes[cluster])
        elif self._total_nodes is not None:
            nodes = min(nodes, self._total_nodes)
        walltime = max(record.walltime_s, 1.0)
        expr = Comparison("cluster", "=", cluster) if cluster is not None else None
        lo: Optional[int] = None
        hi: Optional[int] = None
        if self.elastic_min_scale != 1.0 or self.elastic_max_scale != 1.0:
            cap = (self._cluster_sizes[cluster]
                   if cluster is not None and self._cluster_sizes
                   else self._total_nodes)
            lo = max(1, int(nodes * self.elastic_min_scale))
            hi = max(nodes, math.ceil(nodes * self.elastic_max_scale))
            if cap is not None:
                hi = min(hi, cap)
            hi = max(hi, nodes)
            if not (lo < nodes or hi > nodes):
                lo = hi = None  # degenerate range: plain rigid
        request = JobRequest(expr, nodes, lo, hi, float(round(walltime)))
        self.submitted += 1
        user = record.user or f"trace{self.submitted}"
        job = self.oar.submit(request, user=user,
                              auto_duration=max(min(record.run_s, walltime), 0.0))
        self._notify_submitted(job)
        return job
