"""Multi-seed, multi-scenario campaign batches.

The paper's testbed earns trust by running *many* scenarios *often*; one
:func:`~repro.core.campaign.run_scenario` call at a time cannot keep up
with a seed × scenario sweep.  :func:`run_campaigns` fans the
matrix across a warm fleet of worker processes (each world is an
independent simulation — embarrassingly parallel) and
:func:`aggregate_runs` collapses the per-seed reports into mean ± 95 % CI
per metric.

The engine *streams*: each worker runs one cell at a time, results are
collected as cells finish (reassembled into matrix order at the end), each
completion fires an ``on_cell`` progress callback, and a crashing cell is
captured as a failed :class:`CampaignRun` instead of killing the sweep.
The same executor enforces the optional per-cell deadline, retries and
quarantine.  With a :class:`~repro.core.store.CampaignStore` attached
every finished cell is durably archived, and ``resume=True`` skips cells
the store already holds — an interrupted sweep re-pays only its missing
(or previously crashed) cells.

Specs travel to workers as their JSON documents (``ScenarioSpec`` is fully
serializable), so the fan-out works with any start method and the exact
scenario a worker ran is what its report records.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import threading
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Callable, Iterable, Optional, Sequence, Union

from ..scenarios import get as get_preset
from ..scenarios.spec import ScenarioSpec
from .campaign import CampaignReport, run_scenario
from .store import CampaignStore, cell_hash, format_cell_key

__all__ = ["CampaignRun", "MetricSummary", "run_campaigns",
           "aggregate_runs", "summarize_runs", "shutdown_worker_pool"]

#: Scalar CampaignReport fields worth aggregating across seeds.
SCALAR_METRICS: tuple[str, ...] = (
    "bugs_filed",
    "bugs_fixed",
    "bugs_open",
    "bugs_unexplained",
    "faults_injected",
    "faults_detected",
    "faults_active_end",
    "detection_latency_days_median",
    "fix_time_days_median",
    "first_month_success",
    "last_month_success",
    "total_builds",
    "unstable_builds",
    "jobs_completed",
    "turnaround_mean_s",
    "wait_mean_s",
    "node_utilization",
    "grow_events",
    "shrink_events",
)


@dataclass(frozen=True)
class CampaignRun:
    """One (scenario, seed) cell of the batch matrix.

    ``report`` is ``None`` when the cell crashed; ``error`` then carries
    the worker's traceback.  ``spec_hash`` is the seed-independent content
    hash of the effective scenario (see :func:`repro.core.store.cell_hash`)
    — it is what lets :func:`aggregate_runs` detect two *different* specs
    masquerading under one name.  ``quarantined`` marks a poison cell
    (ran past its deadline, or failed every one of several attempts): its
    failure is final and ``resume`` will not retry it.
    """

    scenario: str
    seed: int
    report: Optional[CampaignReport]
    spec_hash: str = ""
    error: Optional[str] = None
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None

    @property
    def error_summary(self) -> str:
        """Last line of the captured traceback (the exception itself)."""
        lines = (self.error or "").strip().splitlines()
        return lines[-1] if lines else "unknown error"


@dataclass(frozen=True)
class MetricSummary:
    """Mean ± 95 % confidence interval of one metric across seeds."""

    mean: float
    std: float
    ci95: float  # half-width; the interval is mean ± ci95
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.ci95:.2f} (n={self.n})"


#: Two-sided 95 % Student-t critical values by degrees of freedom.  Seed
#: sweeps are small (n of 3-10), where the normal z=1.96 understates the
#: interval badly (t(3)=3.182); beyond 30 dof the normal approximation
#: is within 2 %.
_T95: tuple[float, ...] = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def _t95(dof: int) -> float:
    if dof <= 0:
        return float("nan")
    if dof <= len(_T95):
        return _T95[dof - 1]
    return 1.96


def _run_cell(payload: tuple[int, dict, int, Optional[float]]
              ) -> tuple[int, Optional[CampaignReport], Optional[str]]:
    """Run one cell; returns ``(matrix_index, report, error)``.

    A crashing cell comes back as a traceback string instead of killing
    its worker — one sick scenario must not cost the rest of the matrix.
    """
    index, spec_doc, seed, months = payload
    try:
        spec = ScenarioSpec.from_dict(spec_doc)
        _, report = run_scenario(spec, seed=seed, months=months)
        return index, report, None
    except Exception:
        return index, None, traceback.format_exc()


def _worker_main(conn: Connection) -> None:
    """Worker entry point (top-level so it pickles under 'spawn' too):
    run one cell per message until the parent closes the pipe."""
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        conn.send(_run_cell(payload))


# -- warm worker fleet --------------------------------------------------------
#
# Worker processes are expensive to start (each re-imports the whole
# package); a sweep driver calling run_campaigns() in a loop — parameter
# scans, resumed stores, the CLI compare flow — would pay that startup for
# every batch.  The fleet below survives between calls and is resized to
# the requested worker count.  Each worker owns a pipe and holds at most
# one cell, so a worker that hangs or dies costs exactly itself: it is
# terminated and replaced while the rest of the fleet stays warm.  Cells
# travel as JSON specs and come back as reports, and the only state a
# worker keeps between cells is the seed-independent world cache: each
# cluster-spec set's testbed description and initial Reference API import
# (core/builder.py) and each trace file read (oar/traces.py).  Reuse
# cannot leak simulation state across cells or batches: the shared
# objects are frozen or read-only, and every cell gets its own
# description containers, machines and history.


class _Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    __slots__ = ("proc", "conn", "cell", "deadline")

    def __init__(self) -> None:
        ctx = multiprocessing.get_context()
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,),
                                daemon=True)
        self.proc.start()
        # Only the worker may hold the child end: once it exits, the
        # parent's end reads EOF instead of blocking.
        child.close()
        #: ``(payload, attempt)`` in flight, or None when idle.
        self.cell: Optional[tuple[tuple, int]] = None
        self.deadline = math.inf

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.join(timeout=5.0)
        self.conn.close()


_fleet: list[_Worker] = []
#: Serializes batches across threads: the campaign service runs one
#: session per connection thread, and two threads dispatching to one
#: fleet would steal each other's results.  Held for the whole fleet
#: phase of :func:`run_campaigns` (one batch at a time is also the global
#: dedupe cache's friend: the second identical sweep resumes from the
#: store instead of racing the first).
_fleet_lock = threading.RLock()


def shutdown_worker_pool() -> None:
    """Stop every worker of the warm fleet (no-op when none is alive).

    Registered via ``atexit``; call it explicitly to reclaim the worker
    processes early (e.g. after the last batch of a long-lived driver).
    """
    with _fleet_lock:
        while _fleet:
            _fleet.pop().stop()


atexit.register(shutdown_worker_pool)


def _run_fleet(pending, finish, workers: int,
               cell_timeout_s: Optional[float], max_cell_attempts: int,
               retry_backoff_s: float) -> None:
    """Run ``pending`` cells on a ``workers``-strong warm fleet.

    The dispatcher blocks on the busy workers' pipes and process
    sentinels until the nearest cell deadline or retry backoff.  Real
    wall-clock time (not sim time) governs deadlines, deliberately: a
    hung *process* is a host-level fault, outside the simulation's
    determinism contract.
    """
    import time  # local: keeps the module import graph sim-clock-clean

    #: (payload, attempt, not_before): retries wait out their backoff.
    waiting: list[tuple[tuple, int, float]] = [
        (payload, 1, 0.0) for payload in pending]

    def replace(slot: int) -> _Worker:
        _fleet[slot].stop()
        _fleet[slot] = _Worker()
        return _fleet[slot]

    def settle(cell: tuple[tuple, int], report: Optional[CampaignReport],
               error: Optional[str], timed_out: bool = False) -> None:
        """One attempt is over: finish, retry, or quarantine the cell."""
        payload, attempt = cell
        if error is None:
            finish(payload[0], report, None)
        elif timed_out:
            # Deterministic cells hang deterministically: retrying past
            # the deadline would hang again.  Straight to quarantine.
            finish(payload[0], None, error, quarantined=True)
        elif attempt < max_cell_attempts:
            backoff = retry_backoff_s * 2 ** (attempt - 1)
            waiting.append((payload, attempt + 1,
                            time.monotonic() + backoff))  # detlint: disable=DET002
        else:
            # Out of attempts.  With retries configured this cell is
            # poison (it failed repeatedly); without, it is an ordinary
            # recorded failure that a resume heals.
            finish(payload[0], None, error,
                   quarantined=max_cell_attempts > 1)

    timeout_s = cell_timeout_s if cell_timeout_s is not None else math.inf
    while len(_fleet) > workers:
        _fleet.pop().stop()
    while len(_fleet) < workers:
        _fleet.append(_Worker())
    try:
        while waiting or any(w.cell is not None for w in _fleet):
            now = time.monotonic()  # detlint: disable=DET002
            for slot, worker in enumerate(_fleet):
                if worker.cell is not None:
                    continue
                ready = next((c for c in waiting if c[2] <= now), None)
                if ready is None:
                    break
                if not worker.proc.is_alive():  # died while idle
                    worker = replace(slot)
                waiting.remove(ready)
                worker.cell = ready[:2]
                worker.deadline = now + timeout_s
                worker.conn.send(ready[0])
            busy = [w for w in _fleet if w.cell is not None]
            wakes = [w.deadline for w in busy]
            if len(busy) < len(_fleet):
                wakes += [not_before for _, _, not_before in waiting]
            timeout = min(wakes, default=math.inf) - now
            handles = ([w.conn for w in busy]
                       + [w.proc.sentinel for w in busy])
            ready_handles = wait(handles, None if timeout == math.inf
                                 else max(0.0, timeout))
            now = time.monotonic()  # detlint: disable=DET002
            for slot, worker in enumerate(_fleet):
                cell = worker.cell
                if cell is None:
                    continue
                if (worker.conn in ready_handles
                        or worker.proc.sentinel in ready_handles):
                    try:
                        _, report, error = worker.conn.recv()
                    except (EOFError, OSError):  # dead: its pipe reads EOF
                        replace(slot)
                        settle(cell, None, "worker died without a result "
                               f"(exit code {worker.proc.exitcode}); "
                               "worker replaced")
                    else:
                        worker.cell = None
                        settle(cell, report, error)
                elif now >= worker.deadline:
                    replace(slot)
                    settle(cell, None, f"cell timed out after "
                           f"{cell_timeout_s}s wall clock; worker "
                           "terminated and replaced", timed_out=True)
    except BaseException:
        # Workers still busy with an abandoned batch (KeyboardInterrupt,
        # a failing callback) would hand their stale results to the next
        # call; stop the whole fleet before propagating.
        shutdown_worker_pool()
        raise


#: Progress callback: ``on_cell(run, cached)`` fires once per finished
#: cell, in completion order; ``cached`` is True for store hits.
ProgressCallback = Callable[[CampaignRun, bool], None]


def run_campaigns(
    specs: Sequence[Union[ScenarioSpec, str]],
    seeds: Iterable[int],
    workers: Optional[int] = None,
    months: Optional[float] = None,
    store: Optional[Union[CampaignStore, str, "os.PathLike[str]"]] = None,
    resume: bool = False,
    on_cell: Optional[ProgressCallback] = None,
    cell_timeout_s: Optional[float] = None,
    max_cell_attempts: int = 1,
    retry_backoff_s: float = 0.25,
) -> list[CampaignRun]:
    """Run every scenario × seed combination; returns one run per cell.

    ``specs`` may mix :class:`ScenarioSpec` values and preset names
    (resolved via :func:`repro.scenarios.get`).  ``workers`` sizes the
    worker fleet and defaults to ``min(len(matrix), cpu_count)``.
    ``months`` optionally overrides every spec's horizon.

    ``store`` (a :class:`~repro.core.store.CampaignStore` or a path to
    one) durably archives each cell as it finishes; with ``resume=True``
    cells the store already holds *successfully* are returned from the
    archive instead of re-executed (recorded failures are retried, so a
    resume after a transient crash heals the matrix).  ``on_cell`` fires
    once per finished cell in completion order.

    A cell that raises, or whose worker dies, does not abort the sweep:
    its :class:`CampaignRun` carries the error in ``error`` and
    ``report=None``, and is recorded as a failure when a store is
    attached.  A failed cell is retried up to ``max_cell_attempts`` times
    with exponential backoff (``retry_backoff_s · 2^(attempt-1)``) and
    quarantined once more than one attempt is spent.  A cell still
    running ``cell_timeout_s`` seconds (wall clock) after it started is
    quarantined at once and its worker replaced.  Quarantined cells are
    final: ``resume=True`` returns them from the store instead of looping
    on a poison cell.

    The worker fleet stays alive between calls, so a caller looping over
    batches pays process startup once.  Results are deterministic per
    cell and come back in matrix order (scenario-major, seed-minor)
    regardless of worker count.

    Raises ``ValueError`` for a non-positive ``workers`` or
    ``cell_timeout_s``, ``max_cell_attempts < 1`` or a negative
    ``retry_backoff_s``.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if cell_timeout_s is not None and not 0 < cell_timeout_s < math.inf:
        raise ValueError("cell_timeout_s must be a positive number of "
                         f"seconds, got {cell_timeout_s!r}")
    if max_cell_attempts < 1:
        raise ValueError(
            f"max_cell_attempts must be >= 1, got {max_cell_attempts!r}")
    if not 0 <= retry_backoff_s < math.inf:
        raise ValueError(
            f"retry_backoff_s must be >= 0, got {retry_backoff_s!r}")
    resolved = [get_preset(s) if isinstance(s, str) else s for s in specs]
    seed_list = list(seeds)
    matrix = [(spec, seed) for spec in resolved for seed in seed_list]
    if not matrix:
        return []
    if store is not None and not isinstance(store, CampaignStore):
        store = CampaignStore(store)

    # Hash/serialize each spec once; every cell of its seed row reuses it.
    hashes = {id(spec): cell_hash(spec, months) for spec in resolved}
    docs = {id(spec): spec.to_dict() for spec in resolved}
    runs: list[Optional[CampaignRun]] = [None] * len(matrix)
    pending: list[tuple[int, dict, int, Optional[float]]] = []
    for index, (spec, seed) in enumerate(matrix):
        if store is not None and resume:
            effective = months if months is not None else spec.months
            key = format_cell_key(hashes[id(spec)], seed, effective)
            cached = store.get(key)
        else:
            cached = None
        if cached is not None and (cached.ok or cached.quarantined):
            # Successes resume from the archive; so do quarantined
            # failures — a poison cell must not be retried forever.
            runs[index] = CampaignRun(
                scenario=spec.name, seed=seed, report=cached.report,
                spec_hash=cached.spec_hash, error=cached.error,
                quarantined=cached.quarantined)
            if on_cell is not None:
                on_cell(runs[index], True)
        else:
            pending.append((index, docs[id(spec)], seed, months))

    def finish(index: int, report: Optional[CampaignReport],
               error: Optional[str], quarantined: bool = False) -> None:
        spec, seed = matrix[index]
        runs[index] = CampaignRun(scenario=spec.name, seed=seed,
                                  report=report, spec_hash=hashes[id(spec)],
                                  error=error, quarantined=quarantined)
        if store is not None:
            if error is None:
                store.record_success(spec, seed, report, months=months,
                                     spec_hash=hashes[id(spec)])
            else:
                store.record_failure(spec, seed, error, months=months,
                                     spec_hash=hashes[id(spec)],
                                     quarantined=quarantined)
        if on_cell is not None:
            on_cell(runs[index], False)

    if workers is None:
        workers = min(len(matrix), os.cpu_count() or 1)
    if pending:
        with _fleet_lock:
            _run_fleet(pending, finish, workers, cell_timeout_s,
                       max_cell_attempts, retry_backoff_s)
    assert all(r is not None for r in runs)
    return runs  # type: ignore[return-value]


def aggregate_runs(
    runs: Sequence[CampaignRun],
) -> dict[str, dict[str, MetricSummary]]:
    """Per-scenario mean ± 95 % CI for every scalar metric.

    NaN metric values (e.g. the median detection latency of a campaign
    that detected nothing) are dropped from that metric's sample, as are
    failed runs (``report=None``).

    Two *different* specs sharing one scenario name would silently merge
    into a single bogus confidence interval; runs carry the spec content
    hash, so that conflict is detected and raises ``ValueError`` instead.
    """
    by_scenario: dict[str, list[CampaignRun]] = {}
    for run in runs:
        if not run.ok:
            continue
        by_scenario.setdefault(run.scenario, []).append(run)
    for scenario, cell_runs in by_scenario.items():
        hashes = {r.spec_hash for r in cell_runs if r.spec_hash}
        if len(hashes) > 1:
            raise ValueError(
                f"scenario name {scenario!r} covers {len(hashes)} different "
                f"specs ({', '.join(sorted(hashes))}); aggregating them into "
                "one CI would be meaningless — rename one of the specs")
    out: dict[str, dict[str, MetricSummary]] = {}
    for scenario, cell_runs in by_scenario.items():
        metrics: dict[str, MetricSummary] = {}
        for name in SCALAR_METRICS:
            values = [float(getattr(r.report, name)) for r in cell_runs]
            values = [v for v in values if not math.isnan(v)]
            if not values:
                metrics[name] = MetricSummary(float("nan"), float("nan"),
                                              float("nan"), 0)
                continue
            n = len(values)
            mean = sum(values) / n
            var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
            std = math.sqrt(var)
            ci95 = _t95(n - 1) * std / math.sqrt(n) if n > 1 else 0.0
            metrics[name] = MetricSummary(mean=mean, std=std, ci95=ci95, n=n)
        out[scenario] = metrics
    return out


def summarize_runs(runs: Sequence[CampaignRun],
                   metrics: Sequence[str] = ("bugs_filed", "bugs_fixed",
                                             "faults_detected",
                                             "last_month_success",
                                             "total_builds")) -> str:
    """Human-readable aggregate table (one block per scenario).

    Failed cells are excluded from the statistics and listed at the end.
    """
    aggregated = aggregate_runs(runs)
    lines = []
    for scenario in sorted(aggregated):
        seeds = sorted(r.seed for r in runs if r.scenario == scenario and r.ok)
        lines.append(f"{scenario}  (seeds: {', '.join(map(str, seeds))})")
        for name in metrics:
            lines.append(f"  {name:<32} {aggregated[scenario][name]}")
    failed = [r for r in runs if not r.ok]
    if failed:
        lines.append(f"failed cells ({len(failed)}):")
        for r in failed:
            lines.append(f"  {r.scenario} @ seed {r.seed}: {r.error_summary}")
    return "\n".join(lines)
