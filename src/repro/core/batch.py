"""Multi-seed, multi-scenario campaign batches.

The paper's testbed earns trust by running *many* scenarios *often*; the
single-seed serial :func:`~repro.core.campaign.run_campaign` loop cannot
keep up with a seed × scenario sweep.  :func:`run_campaigns` fans the
matrix across ``multiprocessing`` workers (each world is an independent
simulation — embarrassingly parallel) and :func:`aggregate_runs` collapses
the per-seed reports into mean ± 95 % CI per metric.

The engine *streams*: results come back via ``imap_unordered`` as cells
finish (reassembled into matrix order at the end), each completion fires an
``on_cell`` progress callback, and a crashing cell is captured as a failed
:class:`CampaignRun` instead of killing the pool.  With a
:class:`~repro.core.store.CampaignStore` attached every finished cell is
durably archived, and ``resume=True`` skips cells the store already holds —
an interrupted sweep re-pays only its missing (or previously crashed)
cells.

Specs travel to workers as their JSON documents (``ScenarioSpec`` is fully
serializable), so the fan-out works with any start method and the exact
scenario a worker ran is what its report records.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import queue as queue_mod
import threading
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from ..scenarios import get as get_preset
from ..scenarios.spec import ScenarioSpec
from .campaign import CampaignReport, run_scenario
from .store import CampaignStore, cell_hash, format_cell_key

__all__ = ["CampaignRun", "MetricSummary", "run_campaigns",
           "aggregate_runs", "summarize_runs", "shutdown_worker_pool"]

# -- warm worker pool ---------------------------------------------------------
#
# Worker processes are expensive to fork/spawn (each re-imports the whole
# package); a sweep driver calling run_campaigns() in a loop — parameter
# scans, resumed stores, the CLI compare flow — used to pay that startup
# for every batch.  The pool below survives between calls and is only
# rebuilt when the requested worker count changes.  Workers are stateless
# (cells travel as JSON specs and come back as reports), so reuse cannot
# leak simulation state across batches.

_pool: Optional[multiprocessing.pool.Pool] = None
_pool_size = 0
#: Serializes pool batches across threads: the campaign service runs
#: one session per connection thread, and two threads resizing/draining a
#: shared Pool concurrently is undefined behaviour.  Held for the whole
#: pool branch of :func:`run_campaigns` (one batch at a time is also the
#: global dedupe cache's friend: the second identical sweep resumes from
#: the store instead of racing the first).
_pool_lock = threading.RLock()


def _get_pool(processes: int) -> multiprocessing.pool.Pool:
    global _pool, _pool_size
    if _pool is not None and _pool_size != processes:
        shutdown_worker_pool()
    if _pool is None:
        _pool = multiprocessing.Pool(processes=processes)
        _pool_size = processes
    return _pool


def shutdown_worker_pool() -> None:
    """Tear down the warm worker pool (no-op when none is alive).

    Registered via ``atexit``; call it explicitly to reclaim the worker
    processes early (e.g. after the last batch of a long-lived driver).
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None:
            _pool.terminate()
            _pool.join()
            _pool = None
            _pool_size = 0


atexit.register(shutdown_worker_pool)

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
    (hung past its watchdog, or failed every supervised attempt): its
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
    """Worker entry point (top-level so it pickles under 'spawn' too).

    Returns ``(matrix_index, report, error)``.  A crashing cell comes back
    as a traceback string instead of poisoning the pool — one sick
    scenario must not cost the rest of the matrix.
    """
    index, spec_doc, seed, months = payload
    try:
        spec = ScenarioSpec.from_dict(spec_doc)
        _, report = run_scenario(spec, seed=seed, months=months)
        return index, report, None
    except Exception:
        return index, None, traceback.format_exc()


def _run_cell_child(payload: tuple[int, dict, int, Optional[float]],
                    queue: "multiprocessing.Queue") -> None:
    """Supervised-mode child entry point: one process, one cell.

    The result travels back over a queue; a child that never delivers
    (hang, segfault, ``os._exit``) is detected by the supervisor via the
    wall-clock watchdog / its exit code — the parent never blocks on it.
    """
    queue.put(_run_cell(payload))


class _SupervisedCell:
    """Bookkeeping for one in-flight supervised cell."""

    __slots__ = ("payload", "attempt", "proc", "queue", "deadline")

    def __init__(self, payload, attempt: int, ctx, timeout_s, now):
        self.payload = payload
        self.attempt = attempt
        self.queue = ctx.Queue(maxsize=1)
        self.proc = ctx.Process(target=_run_cell_child,
                                args=(payload, self.queue), daemon=True)
        self.proc.start()
        self.deadline = (now + timeout_s) if timeout_s is not None else None


def _run_supervised(pending, finish, workers: int,
                    cell_timeout_s: Optional[float],
                    max_cell_attempts: int,
                    retry_backoff_s: float) -> None:
    """Process-per-cell execution with watchdog, retries and quarantine.

    Unlike the pool paths, every attempt gets a *fresh* worker process,
    so a hung or crashed cell costs exactly one process — terminated and
    replaced — and never wedges a shared pool.  Real wall-clock time
    (not sim time) governs the watchdog, deliberately: a hung *process*
    is a host-level fault, outside the simulation's determinism contract.
    """
    import time  # local: keeps the module import graph sim-clock-clean

    ctx = multiprocessing.get_context()
    #: (payload, attempt, not_before): retries wait out their backoff.
    waiting: list[tuple[tuple, int, float]] = [
        (payload, 1, 0.0) for payload in pending]
    active: dict[int, _SupervisedCell] = {}

    def retire(cell: _SupervisedCell, error: Optional[str],
               report, timed_out: bool) -> None:
        """One attempt is over: retry, quarantine, or finish."""
        index = cell.payload[0]
        if error is None:
            finish(index, report, None)
            return
        if timed_out:
            # Deterministic cells hang deterministically: retrying a
            # watchdog kill would hang again.  Straight to quarantine.
            finish(index, None, error, quarantined=True)
            return
        if cell.attempt < max_cell_attempts:
            now = time.monotonic()  # detlint: disable=DET002
            backoff = retry_backoff_s * 2 ** (cell.attempt - 1)
            waiting.append((cell.payload, cell.attempt + 1, now + backoff))
            return
        # Out of attempts.  With retries configured this cell is poison
        # (it failed repeatedly); without, it is an ordinary recorded
        # failure, exactly as the unsupervised paths would report it.
        finish(index, None, error, quarantined=max_cell_attempts > 1)

    def reap(cell: _SupervisedCell, now: float) -> bool:
        """Check one in-flight attempt; True when it retired."""
        try:
            result = cell.queue.get_nowait()
        except queue_mod.Empty:
            if cell.proc.is_alive():
                if cell.deadline is not None and now >= cell.deadline:
                    cell.proc.terminate()
                    cell.proc.join(timeout=5.0)
                    retire(cell, f"cell timed out after {cell_timeout_s}s "
                           "wall clock; worker terminated and replaced",
                           None, timed_out=True)
                    return True
                return False
            # Dead without a result: give the queue feeder one final,
            # bounded chance, then call it a crash.
            try:
                result = cell.queue.get(timeout=0.2)
            except queue_mod.Empty:
                retire(cell, "worker died without a result "
                       f"(exit code {cell.proc.exitcode})", None,
                       timed_out=False)
                return True
        cell.proc.join(timeout=5.0)
        _, report, error = result
        retire(cell, error, report, timed_out=False)
        return True

    while len(waiting) + len(active) > 0:
        now = time.monotonic()  # detlint: disable=DET002
        # Launch every retry whose backoff has elapsed, capacity allowing.
        still_waiting = []
        for payload, attempt, not_before in waiting:
            if len(active) < workers and now >= not_before:
                active[payload[0]] = _SupervisedCell(
                    payload, attempt, ctx, cell_timeout_s, now)
            else:
                still_waiting.append((payload, attempt, not_before))
        waiting[:] = still_waiting
        for index in list(active):
            if reap(active[index], time.monotonic()):  # detlint: disable=DET002
                del active[index]
        time.sleep(0.02)


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
    (resolved via :func:`repro.scenarios.get`).  ``workers`` defaults to
    ``min(len(matrix), cpu_count)``; ``workers=1`` runs serially in
    process (useful for debugging and for determinism tests).  ``months``
    optionally overrides every spec's horizon.

    ``store`` (a :class:`~repro.core.store.CampaignStore` or a path to
    one) durably archives each cell as it finishes; with ``resume=True``
    cells the store already holds *successfully* are returned from the
    archive instead of re-executed (recorded failures are retried, so a
    resume after a transient crash heals the matrix).  ``on_cell`` fires
    once per finished cell in completion order.

    A cell that raises does not abort the sweep: its :class:`CampaignRun`
    carries the traceback in ``error`` and ``report=None``, and is
    recorded as a failure when a store is attached.

    The worker pool stays alive between calls, so a caller looping over
    batches pays process startup once.  The number of cells riding one
    IPC message adapts to the batch (1 for small matrices, scaling up to
    8): larger chunks cut dispatch overhead on big sweeps at the cost of
    coarser work stealing.

    ``cell_timeout_s`` / ``max_cell_attempts`` switch on *supervised*
    execution (process-per-cell instead of the pool): a cell past its
    wall-clock timeout is killed, recorded as a quarantined timeout
    failure, and its worker replaced; a crashing cell is retried up to
    ``max_cell_attempts`` times with exponential backoff
    (``retry_backoff_s · 2^(attempt-1)``) and quarantined once the
    attempts are spent.  Quarantined cells are final: ``resume=True``
    returns them from the store instead of looping on a poison cell.
    Leave both at their defaults for the original pool behaviour.

    Results are deterministic per cell and come back in matrix order
    (scenario-major, seed-minor) regardless of worker count, pool warmth
    or chunking.
    """
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
    supervised = cell_timeout_s is not None or max_cell_attempts > 1
    if supervised:
        _run_supervised(pending, finish, workers=max(1, workers),
                        cell_timeout_s=cell_timeout_s,
                        max_cell_attempts=max_cell_attempts,
                        retry_backoff_s=retry_backoff_s)
    elif workers <= 1 or len(pending) <= 1:
        for payload in pending:
            finish(*_run_cell(payload))
    else:
        chunk = max(1, min(8, len(pending) // (workers * 4)))
        # Sized by `workers`, not by this batch's pending count: a
        # mostly-cached resume batch must reuse the warm pool, not tear it
        # down to fit its two missing cells (idle workers are far cheaper
        # than a pool rebuild).
        with _pool_lock:
            pool = _get_pool(workers)
            try:
                # Streaming: archive/report each cell the moment it lands,
                # in completion order; `runs` reassembles matrix order.
                for result in pool.imap_unordered(_run_cell, pending, chunk):
                    finish(*result)
            except BaseException:
                # A broken or abandoned pool (worker killed mid-batch,
                # KeyboardInterrupt while draining) must not poison the
                # next call; dispose of it before propagating.
                shutdown_worker_pool()
                raise
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
