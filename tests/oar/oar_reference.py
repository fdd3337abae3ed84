"""Reference models the OAR differential tests compare production against.

* :func:`free_intervals` / :func:`linear_earliest_start` — the per-node
  interval sweep the scheduler ran before the availability profile.  The
  profile must reproduce its answers bit for bit (same floats), so it is
  kept here, out of production code, as the oracle.
* :func:`assert_plans_tight` — after a *full* replanning pass no scheduled
  job may be placeable earlier than its reservation.
"""

import bisect
import math

from repro.oar.gantt import Gantt, NodeTimeline


def free_intervals(timeline: NodeTimeline,
                   after: float) -> list[tuple[float, float]]:
    """Maximal free windows of one node from ``after`` on (the last one
    is unbounded)."""
    reservations = timeline._reservations
    idx = bisect.bisect_right(timeline._starts, after)
    prev = after
    if idx > 0 and reservations[idx - 1].end > after:
        prev = reservations[idx - 1].end
    out: list[tuple[float, float]] = []
    for i in range(idx, len(reservations)):
        r = reservations[i]
        if r.start > prev:
            out.append((prev, r.start))
        if r.end > prev:
            prev = r.end
    out.append((prev, math.inf))
    return out


def linear_earliest_start(gantt: Gantt, uids: list[str], after: float,
                          duration: float, k: int):
    """Earliest ``t >= after`` when ``k`` of ``uids`` are simultaneously
    free over ``[t, t + duration)``, by interval sweep: each free window
    ``[s, e)`` long enough for ``duration`` lets its node host a start
    anywhere in ``[s, e - duration]``; the answer is the first sweep
    point where at least ``k`` host intervals overlap."""
    timelines = [gantt._timelines[u] for u in uids]
    n = len(timelines)
    # Idle nodes can all host a start at `after`.
    idle = sum(1 for tl in timelines if not tl._reservations)
    if idle >= k:
        return after
    if k == n:
        return gantt._whole_set_start(uids, after, duration)
    interval_lists = []
    fits_now = idle
    for tl in timelines:
        if not tl._reservations:
            continue
        intervals = free_intervals(tl, after)
        interval_lists.append(intervals)
        s0, e0 = intervals[0]
        if s0 == after and e0 - after >= duration:
            fits_now += 1
    if fits_now >= k:
        return after
    events: list[tuple[float, int]] = []
    for intervals in interval_lists:
        for s, e in intervals:
            if e - s >= duration:
                events.append((s, 0))  # +1: can host starts from s on
                if math.isfinite(e):
                    events.append((e - duration, 1))  # -1 after this point
    events.sort()
    count = idle
    for coord, kind in events:
        if kind == 0:
            count += 1
            if count >= k:
                return coord
        else:
            count -= 1
    return None


def assert_plans_tight(oar) -> None:
    """No scheduled job may start earlier than its reservation.

    The job's own reservation still occupies its slot, so the recomputed
    earliest start can only be >= the planned one; < means the last
    replanning pass left a freed hole unused.
    """
    now = oar.sim.now
    for job in oar._scheduled:
        placement = oar._find_assignment(job, now)
        if placement is not None and placement[0] < job.scheduled_start:
            raise AssertionError(
                f"job {job.job_id} reserved at t={job.scheduled_start} "
                f"could start at t={placement[0]}")
