"""The OAR server: submission, scheduling, execution of jobs.

Scheduling model (a faithful small-scale OAR):

* **FCFS with conservative backfilling** — jobs are considered in
  submission order; each gets the earliest reservation that fits around
  all existing reservations.  Later small jobs therefore slide into holes
  in front of earlier wide jobs without delaying them.
* **Whole-cluster requests** (``nodes=ALL``) need every alive node of the
  matching set free simultaneously — on a loaded testbed this takes a long
  time, which is precisely the paper's scheduling problem (slide 16:
  "waiting for all nodes of a given cluster to be available can take
  weeks").
* **Immediate-or-cancel submissions** model the external test scheduler's
  contract (slide 17): if the job cannot start right now it is cancelled
  (and the Jenkins build is marked unstable by the caller).
* On every job completion, not-yet-started reservations are recomputed so
  early releases pull future jobs forward (as OAR's periodic scheduling
  pass does).

Node states follow OAR vocabulary: **Alive** (usable), **Absent**
(rebooting/off), **Suspected** (crashed).  Placement reads liveness from
the park's alive bitmask (:attr:`MachinePark.alive_mask`), which shares the
Gantt's bit order: a candidate set is ``matching_mask(expr) & alive_mask``.
Every node set inside the scheduler is such a mask; uids appear only on
``Job.assignment``, built only when a placement changes (a re-placement
that lands on the same start and nodes keeps it) or a job is resized.
"""

from __future__ import annotations

import bisect
from functools import reduce
from operator import attrgetter, or_
from typing import Optional, Union

from ..nodes.machine import MachinePark, PowerState
from ..util.errors import SchedulingError
from ..util.events import Simulator
from .database import OarDatabase
from .gantt import Gantt
from .jobs import Job, JobState
from .request import ALL_NODES, Columns, JobRequest, parse_request

__all__ = ["OarServer"]

#: Tolerance for "starts now" in immediate-or-cancel submissions.
_IMMEDIATE_SLACK_S = 1.0

#: Coalescing window of the replan pass (see ``_replan_pending``).
_REPLAN_BATCH_S = 300.0

#: Every this often the replan pass re-places every scheduled job, not
#: only those whose matching set meets a node freed since the last pass.
_FULL_REPLAN_PERIOD_S = 3600.0

#: Sort key of the job-id (FCFS) ordered lists.
_job_id = attrgetter("job_id")

#: CPU load applied to allocated nodes (feeds the power model).
_BUSY_LOAD = 0.75
_IDLE_LOAD = 0.02


def _lowest_bits(mask: int, k: int) -> int:
    """The ``k`` lowest set bits of ``mask``: its first ``k`` nodes in
    database order."""
    if mask.bit_count() <= k:
        return mask
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


class OarServer:
    """Resource manager over one testbed."""

    def __init__(self, sim: Simulator, database: OarDatabase, machines: MachinePark):
        self.sim = sim
        self.db = database
        self.machines = machines
        if database.node_uids() != machines.uids:
            raise SchedulingError(
                "OAR database and machine park hold different node sets")
        self.gantt = Gantt(machines.uids)
        self.jobs: dict[int, Job] = {}
        self._next_job_id = 1
        #: Jobs with no reservation yet, in submission order.
        self._waiting: list[Job] = []
        #: Jobs with a reservation that has not started yet.
        self._scheduled: list[Job] = []
        #: Running jobs in job-id (FCFS) order: in on start, out on finish
        #: or tear-down, so no reader rescans every job ever submitted.
        self._running: list[Job] = []
        self._matching_cache: dict[str, int] = {}
        #: ``job_id -> job_mask(job)`` for the jobs not yet ended.
        self._job_masks: dict[int, int] = {}
        self._matching_epoch = database.services.oar_drift_epoch
        #: Column index of the database rows a cache miss selects from;
        #: built on the first miss of each drift epoch.
        self._columns: Optional[Columns] = None
        #: Replan coalescing: many completions in a burst trigger a single
        #: rescheduling pass (like OAR's periodic scheduler), which keeps
        #: long campaigns tractable.
        self._replan_pending = False
        #: Bitmask of the nodes freed since the last replanning pass:
        #: between periodic full passes only scheduled jobs whose matching
        #: set contains one of them are re-placed.
        self._dirty_nodes = 0
        self._next_full_replan = 0.0
        #: Observation hooks (read-only subscribers, e.g. the service layer's
        #: GETS counters).  Called after the job's own event succeeds; they
        #: must not mutate scheduling state.
        self.on_job_start: list = []
        self.on_job_complete: list = []
        #: Grow/shrink events executed by malleable policies (campaign
        #: reports surface these per strategy).
        self.grow_events = 0
        self.shrink_events = 0
        #: Allocated node-seconds integral: accrued at every allocation
        #: change, so time-averaged utilization is exact, not sampled.
        self._alloc_count = 0
        self._alloc_integral = 0.0
        self._alloc_since = 0.0

    # -- node states -----------------------------------------------------------

    def node_state(self, uid: str) -> str:
        """One node's state in OAR vocabulary (what ``oarnodes`` shows)."""
        state = self.machines[uid].state
        if state is PowerState.ON:
            return "Alive"
        if state is PowerState.CRASHED:
            return "Suspected"
        return "Absent"

    # -- submission ----------------------------------------------------------------

    def submit(
        self,
        request: Union[str, JobRequest],
        user: str = "user",
        auto_duration: Optional[float] = None,
        immediate: bool = False,
    ) -> Job:
        """Submit a job; returns it (state CANCELLED for failed immediates).

        ``auto_duration`` caps the actual run time (min with walltime);
        ``None`` means the job runs until :meth:`release` or walltime kill.
        """
        if isinstance(request, str):
            request = parse_request(request)
        job = Job(
            job_id=self._next_job_id,
            user=user,
            request=request,
            submitted_at=self.sim.now,
            immediate=immediate,
            auto_duration=auto_duration,
            started_event=self.sim.event(),
            done_event=self.sim.event(),
        )
        self._next_job_id += 1
        self.jobs[job.job_id] = job
        if immediate:
            placement = self._find_assignment(job, self.sim.now)
            if placement is None or placement[0] > self.sim.now + _IMMEDIATE_SLACK_S:
                self._end(job, JobState.CANCELLED)
            else:
                self._reserve(job, *placement)
            return job
        self._waiting.append(job)
        self._schedule_pass()
        return job

    def release(self, job: Job) -> None:
        """End a running job now (normal completion)."""
        if job.state != JobState.RUNNING:
            raise SchedulingError(f"cannot release job in state {job.state}")
        self._finish(job, JobState.TERMINATED)

    # -- scheduling ------------------------------------------------------------------

    def matching_mask(self, expr) -> int:
        """Cached bitmask of the nodes matching an expression (bit order ==
        database order, see :class:`~repro.oar.gantt.ResourceProfile`).
        The cache and the column index empty first whenever an
        OAR_PROPERTY_DRIFT fault changed the rows since they were built.
        A miss selects from the column index, so it reads each distinct
        property value once instead of every row: the same nodes
        :meth:`OarDatabase.matching` lists."""
        if self.db.services.oar_drift_epoch != self._matching_epoch:
            self._drop_matching_caches()
        cache = self._matching_cache
        key = str(expr)
        mask = cache.get(key)
        if mask is None:
            full = self.gantt.full_mask
            if expr is None:
                mask = full
            else:
                if self._columns is None:
                    self._columns = self._column_index()
                mask = expr.select(self._columns, full)
            cache[key] = mask
        return mask

    def job_mask(self, job: Job) -> int:
        """Nodes matching the job's request: one cached int per job, so
        the replan pass, placement and the malleable policies build no
        expression key.  Emptied with :meth:`matching_mask`'s cache
        whenever the drift epoch moves."""
        if self.db.services.oar_drift_epoch != self._matching_epoch:
            self._drop_matching_caches()
        mask = self._job_masks.get(job.job_id)
        if mask is None:
            mask = self.matching_mask(job.request.expr)
            self._job_masks[job.job_id] = mask
        return mask

    def _drop_matching_caches(self) -> None:
        """Forget every answer built from the rows of an older drift
        epoch."""
        self._matching_cache.clear()
        self._job_masks.clear()
        self._columns = None
        self._matching_epoch = self.db.services.oar_drift_epoch

    def _column_index(self) -> Columns:
        """``{prop: {value: mask}}`` over the database rows as OAR sees
        them (drift applied), in database (bit) order."""
        columns: Columns = {}
        for uid in self.db.node_uids():
            bit = 1 << self.gantt.bit(uid)
            for prop, value in self.db.properties(uid).items():
                column = columns.setdefault(prop, {})
                column[value] = column.get(value, 0) | bit
        return columns

    def _find_assignment(
        self, job: Job, after: float,
    ) -> Optional[tuple[float, int]]:
        """Earliest (start, node mask) satisfying the request.

        The candidates are the job's matching mask ANDed with the park's
        alive mask; placement is one query on the Gantt's availability
        profile, which the reservations themselves keep current.  A
        whole-set request (ALL, or a count equal to every alive
        candidate) is the same walk with k == the candidate count.
        """
        walltime = job.walltime_s
        count = job.request.count
        cmask = self.job_mask(job) & self.machines.alive_mask
        avail = cmask.bit_count()
        if avail == 0 or (count != ALL_NODES and count > avail):
            return None
        needed = avail if count == ALL_NODES else int(count)
        start = self.gantt.profile_earliest(cmask, after, walltime, needed)
        if start is None:
            return None
        # Lowest free bits == first free candidates in database order.
        free = self.gantt.profile_free_mask(cmask, start, start + walltime)
        return start, _lowest_bits(free, needed)

    def _reserve(self, job: Job, start: float, mask: int) -> None:
        """Hold the job's nodes from ``start`` on.

        A re-placement onto the start and mask the job already held keeps
        its assignment and its pending start timer: uids are a pure
        function of the mask, and the timer still carries the job's
        generation.  Any other placement turns the old timer stale and
        arms a new one."""
        gantt = self.gantt
        gantt.reserve(mask, start, start + job.walltime_s, job.job_id)
        job.state = JobState.SCHEDULED
        self._scheduled.append(job)
        if start == job.scheduled_start and mask == job.reserved_mask:
            return
        job.generation += 1
        job.assignment = tuple(gantt.uids_from_mask(mask))
        job.reserved_mask = mask
        job.scheduled_start = start
        self.sim.call_at(start, self._try_start, job, job.generation)

    def _schedule_pass(self) -> None:
        """Give every waiting job the earliest reservation that fits; a
        job left waiting loses what it kept of an earlier placement."""
        still_waiting: list[Job] = []
        now = self.sim.now
        for job in self._waiting:
            placement = self._find_assignment(job, now)
            if placement is None:
                self._forget_placement(job)
                still_waiting.append(job)  # no alive matching nodes now
                continue
            self._reserve(job, *placement)
        self._waiting = still_waiting

    def _replan_future_jobs(self, touching: Optional[int] = None) -> None:
        """Tear down not-yet-started reservations and reschedule (pull
        forward after an early release or node repair).

        ``touching`` (a bitmask of freed nodes) narrows the teardown to the
        incremental pass between full sweeps: only scheduled jobs whose
        matching set contains a freed node are re-placed.

        The teardown frees each job's Gantt intervals but keeps its
        assignment, start and generation, so a job the pass puts back on
        the same start and nodes pays only for its search (see
        :meth:`_reserve`); a job that ends the pass waiting is cleared.
        """
        if touching is not None:
            replanned = [j for j in self._scheduled
                         if touching & self.job_mask(j)]
            if not replanned:
                return
            replanned_set = set(replanned)
            self._scheduled = [j for j in self._scheduled
                               if j not in replanned_set]
        else:
            replanned = self._scheduled
            self._scheduled = []
        for job in replanned:
            self.gantt.release(job.job_id)
            job.state = JobState.WAITING
        # Keep global FCFS order across both pools.
        self._waiting = sorted(self._waiting + replanned, key=_job_id)
        self._schedule_pass()

    # -- execution -----------------------------------------------------------------

    def _try_start(self, job: Job, generation: int) -> None:
        if job.generation != generation or job.state != JobState.SCHEDULED:
            return  # stale timer: the job was replanned or cancelled
        self._scheduled.remove(job)
        if job.reserved_mask & ~self.machines.alive_mask:
            # A reserved node died in the meantime: back to the queue.
            self._unplace(job)
            if job.immediate:
                self._end(job, JobState.CANCELLED)
            else:
                self._requeue(job)
            return
        job.state = JobState.RUNNING
        job.started_at = self.sim.now
        bisect.insort(self._running, job, key=_job_id)
        for uid in job.assignment:
            self.machines[uid].cpu_load = _BUSY_LOAD
        self._account_alloc(len(job.assignment))
        job.started_event.succeed(job)
        for hook in self.on_job_start:
            hook(job)
        generation = job.generation
        if job.auto_duration is not None:
            run_for = min(job.auto_duration, job.walltime_s)
            self.sim.call_in(run_for, self._auto_finish, job, generation)
        else:
            self.sim.call_in(job.walltime_s, self._walltime_kill, job, generation)

    def _auto_finish(self, job: Job, generation: int) -> None:
        if job.generation != generation or job.state != JobState.RUNNING:
            return
        if job.mass_remaining is not None:
            # Mass-tracked (resized at least once): killed iff the walltime
            # deadline arrived with work still outstanding.
            self._accrue_mass(job)
            killed = job.mass_remaining > 1e-6
        else:
            killed = (job.auto_duration is not None
                      and job.auto_duration > job.walltime_s)
        job.killed_by_walltime = killed
        self._finish(job, JobState.TERMINATED)

    def _walltime_kill(self, job: Job, generation: int) -> None:
        if job.generation != generation or job.state != JobState.RUNNING:
            return
        job.killed_by_walltime = True
        self._finish(job, JobState.ERROR)

    def _finish(self, job: Job, state: JobState) -> None:
        self._running.remove(job)
        job.generation += 1
        self._account_alloc(-len(job.assignment))
        for uid in job.assignment:
            self.machines[uid].cpu_load = _IDLE_LOAD
        # The job leaves the Gantt whole; its node set turns dirty even
        # when it held nothing after now (a walltime kill exactly at the
        # deadline).
        self.gantt.release(job.job_id)
        self._dirty_nodes |= self.gantt.mask_for(job.assignment)
        self._end(job, state)
        for hook in self.on_job_complete:
            hook(job)
        self._request_replan()

    # -- tear-down -------------------------------------------------------------

    def _unplace(self, job: Job) -> None:
        """Drop the job's reservation: free its Gantt intervals and forget
        the placement."""
        self.gantt.release(job.job_id)
        self._forget_placement(job)

    @staticmethod
    def _forget_placement(job: Job) -> None:
        """Clear the job's assignment, mask and start, and bump the
        generation so every pending timer of the old placement turns
        stale."""
        job.assignment = ()
        job.reserved_mask = 0
        job.scheduled_start = None
        job.generation += 1

    def _requeue(self, job: Job) -> None:
        """Put an unplaced job back in the job-id-sorted queue at its FCFS
        rank (appended, it would wait behind later submissions until the
        next replan re-sort) and run a schedule pass."""
        job.state = JobState.WAITING
        bisect.insort(self._waiting, job, key=_job_id)
        self._schedule_pass()

    def _end(self, job: Job, state: JobState) -> None:
        """Record the job's final state and fire its done event."""
        job.state = state
        job.finished_at = self.sim.now
        self._job_masks.pop(job.job_id, None)
        job.done_event.succeed(job)

    # -- grow/shrink protocol (malleable jobs) ---------------------------------

    def _check_resizable(self, job: Job, verb: str) -> None:
        if job.state != JobState.RUNNING:
            raise SchedulingError(
                f"cannot {verb} job {job.job_id} in state {job.state}")

    def _accrue_mass(self, job: Job) -> None:
        """Bring the remaining-work account up to now at the current width.

        Lazily initialized on the first resize: until then the job's total
        work is ``min(auto_duration, walltime) * width`` node-seconds and
        it has been consuming at its start width — so rigid jobs never
        enter mass tracking and keep their original finish timers.
        """
        if job.auto_duration is None:
            return
        now = self.sim.now
        if job.mass_remaining is None:
            # Full demanded work, NOT clamped to walltime: a job wanting
            # more than its walltime allows must reach the deadline with
            # mass outstanding, so _auto_finish flags it killed exactly
            # like the rigid auto_duration > walltime check does.
            job.mass_remaining = \
                (job.auto_duration - (now - job.started_at)) * job.width
        else:
            job.mass_remaining -= (now - job.mass_accrued_at) * job.width
        job.mass_accrued_at = now
        if job.mass_remaining < 0.0:
            job.mass_remaining = 0.0

    def _reschedule_finish(self, job: Job) -> None:
        """Re-register the finish timer after a width change.

        Bumping the generation first invalidates the previous finish or
        walltime-kill timer — the guard that makes a grow racing a pending
        walltime kill safe: whichever event was already queued sees a stale
        generation and becomes a no-op.
        """
        job.generation += 1
        generation = job.generation
        deadline = job.started_at + job.walltime_s
        if job.auto_duration is not None:
            finish_at = min(self.sim.now + job.mass_remaining / job.width,
                            deadline)
            self.sim.call_at(finish_at, self._auto_finish, job, generation)
        else:
            self.sim.call_at(deadline, self._walltime_kill, job, generation)

    def grow(self, job: Job, mask: int) -> None:
        """Expand a running malleable job onto the idle nodes of ``mask``,
        effective now.

        The nodes must be new to the job, match the request's property
        expression, be alive, and be free from now through the job's
        walltime deadline (see :meth:`grow_candidates`) — growing
        therefore never disturbs any existing reservation.  With linear
        speedup the remaining work spreads over the wider allocation and
        the finish timer pulls in.
        """
        self._check_resizable(job, "grow")
        if not mask:
            return
        now = self.sim.now
        deadline = job.started_at + job.walltime_s
        if now >= deadline:
            raise SchedulingError(
                f"job {job.job_id} is at its walltime deadline")
        width = job.width + mask.bit_count()
        if width > job.max_nodes:
            raise SchedulingError(
                f"cannot grow job {job.job_id} to {width} "
                f"nodes: max_nodes={job.max_nodes}")
        gantt = self.gantt
        for bad, why in (
                (mask & gantt.mask_for(job.assignment),
                 f"already allocated to job {job.job_id}"),
                (mask & ~self.job_mask(job),
                 f"do not match job {job.job_id}'s request"),
                (mask & ~self.machines.alive_mask, "are not alive")):
            if bad:
                raise SchedulingError(
                    f"nodes {gantt.uids_from_mask(bad)} {why}")
        self._accrue_mass(job)  # settle work done at the old width first
        gantt.reserve(mask, now, deadline, job.job_id)
        nodes = gantt.uids_from_mask(mask)
        job.assignment += tuple(nodes)
        for uid in nodes:
            self.machines[uid].cpu_load = _BUSY_LOAD
        self._account_alloc(len(nodes))
        job.grow_count += 1
        self.grow_events += 1
        self._reschedule_finish(job)

    def shrink(self, job: Job, k: int, prefer: int = 0) -> int:
        """Reclaim ``k`` nodes from a running malleable job, effective now.

        Refuses to shrink below the request's ``min_nodes``.  Nodes leave
        the allocation tail first (grown nodes before original ones),
        those in the ``prefer`` mask before any other (the
        steal-agreement policy frees nodes a queued job can actually
        use).  The freed nodes leave the job's Gantt intervals whole.
        Returns the freed mask; nothing is re-placed here, so the caller
        passes it to :meth:`replan_now` for queued work to pull forward.
        """
        self._check_resizable(job, "shrink")
        if k <= 0:
            raise SchedulingError(f"shrink needs a positive count, got {k}")
        if job.width - k < job.min_nodes:
            raise SchedulingError(
                f"cannot shrink job {job.job_id} to {job.width - k} nodes: "
                f"min_nodes={job.min_nodes}")
        alloc = job.assignment
        bit = self.gantt.bit
        # Newest first, the ``prefer`` nodes ahead of the rest (stable).
        tail = sorted((1 << bit(uid) for uid in reversed(alloc)),
                      key=lambda b: not prefer & b)
        freed = reduce(or_, tail[:k])
        self._accrue_mass(job)  # settle work done at the old width first
        kept: list[str] = []
        for uid in alloc:
            if freed >> bit(uid) & 1:
                self.machines[uid].cpu_load = _IDLE_LOAD
            else:
                kept.append(uid)
        job.assignment = tuple(kept)
        self.gantt.release_nodes(freed, job.job_id)
        self._account_alloc(-k)
        job.shrink_count += 1
        self.shrink_events += 1
        self._reschedule_finish(job)
        self._dirty_nodes |= freed
        return freed

    def evict_dead_nodes(self, job: Job) -> bool:
        """Drop dead nodes from a running job's allocation (policy-driven).

        When the surviving width stays >= ``min_nodes`` the job shrinks
        past the dead nodes and keeps running; otherwise it is torn down
        and re-queued at its FCFS rank, exactly like a pre-start node death
        in :meth:`_try_start`.  Returns True when anything changed.  Only
        malleable policies call this — the rigid path keeps the historical
        behaviour (a dead node is held until the job ends).
        """
        if job.state != JobState.RUNNING:
            return False
        gantt = self.gantt
        held = gantt.mask_for(job.assignment)
        dead = held & ~self.machines.alive_mask
        if not dead:
            return False
        alive = tuple(u for u in job.assignment if not dead >> gantt.bit(u) & 1)
        if len(alive) >= max(job.min_nodes, 1):
            # Survivable: shrink past the dead nodes.  Work already done on
            # them is kept (the mass account accrues at the full width up
            # to now) — checkpoint-and-continue semantics.
            self._accrue_mass(job)
            job.assignment = alive
            gantt.release_nodes(dead, job.job_id)
            self._account_alloc(-dead.bit_count())
            job.shrink_count += 1
            self.shrink_events += 1
            self._reschedule_finish(job)
            self._dirty_nodes |= dead
            self._request_replan()
            return True
        # Below min_nodes: tear the run down and restart from the queue.
        self._running.remove(job)
        for uid in alive:
            self.machines[uid].cpu_load = _IDLE_LOAD
        self._account_alloc(-len(job.assignment))
        self._unplace(job)
        job.started_at = None
        job.mass_remaining = None
        job.mass_accrued_at = None
        #: Fresh start event: the original already fired for the first run.
        job.started_event = self.sim.event()
        self._dirty_nodes |= held & ~dead
        self._requeue(job)
        return True

    def replan_now(self, touching: int) -> None:
        """Synchronously re-place the future reservations that may use a
        node of the freed mask ``touching`` (the immediate counterpart of
        the batched replan; malleable policies call this right after
        freeing capacity so queued work pulls forward within the same
        tick)."""
        self._replan_future_jobs(touching)

    def grow_candidates(self, job: Job) -> int:
        """Mask of the alive matching nodes free from now through the
        job's walltime deadline — exactly what :meth:`grow` may claim
        without disturbing any existing reservation.  The job's own nodes
        are reserved through that deadline, so none of them is in it."""
        if job.state != JobState.RUNNING:
            return 0
        now = self.sim.now
        deadline = job.started_at + job.walltime_s
        if deadline <= now:
            return 0
        cmask = self.job_mask(job) & self.machines.alive_mask
        return self.gantt.profile_free_mask(cmask, now, deadline)

    def _account_alloc(self, delta: int) -> None:
        now = self.sim.now
        self._alloc_integral += self._alloc_count * (now - self._alloc_since)
        self._alloc_since = now
        self._alloc_count += delta

    def allocated_node_seconds(self, until: Optional[float] = None) -> float:
        """Exact integral of allocated nodes over time since t=0."""
        until = self.sim.now if until is None else until
        return (self._alloc_integral
                + self._alloc_count * (until - self._alloc_since))

    def _request_replan(self) -> None:
        if not self._replan_pending:
            self._replan_pending = True
            self.sim.call_in(_REPLAN_BATCH_S, self._do_replan)

    def _do_replan(self) -> None:
        self._replan_pending = False
        if self.sim.now >= self._next_full_replan:
            self._next_full_replan = self.sim.now + _FULL_REPLAN_PERIOD_S
            self._replan_future_jobs()
        else:
            self._replan_future_jobs(touching=self._dirty_nodes)
        self._dirty_nodes = 0

    # -- introspection ----------------------------------------------------------------

    def waiting_count(self) -> int:
        return len(self._waiting) + len(self._scheduled)

    def queued_jobs(self, slack_s: float = 60.0) -> list[Job]:
        """Jobs that want to run but are not running: the waiting pool plus
        scheduled jobs whose reservation starts more than ``slack_s`` away.

        Conservative backfilling parks nearly every submission with a
        future reservation, so "queue pressure" means far-future
        reservations, not an empty-handed waiting list.  Sorted by job id
        (FCFS order)."""
        horizon = self.sim.now + slack_s
        queued = list(self._waiting)
        queued.extend(j for j in self._scheduled
                      if j.scheduled_start is not None
                      and j.scheduled_start > horizon)
        queued.sort(key=_job_id)
        return queued

    def running_jobs(self) -> list[Job]:
        """Running jobs in job-id (FCFS) order (a copy of the index)."""
        return list(self._running)

    def utilization(self) -> float:
        """Fraction of alive nodes currently allocated."""
        alive = self.machines.alive_mask
        if not alive:
            return 0.0
        busy = self.gantt.mask_for(
            u for j in self._running for u in j.assignment)
        return (busy & alive).bit_count() / alive.bit_count()
