"""Reference models the OAR differential tests compare production against.

* :class:`NodeTimeline` / :class:`TimelineGantt` — per-node sorted
  reservation lists, the representation the Gantt kept before the
  availability profile became its only store, with the searches that ran
  on it: the interval sweep (k of n nodes), the next-fit fixpoint (the
  whole set) and the multi-part scan over release points.  The profile
  must reproduce their answers bit for bit (same floats, same nodes), so
  they are kept here, out of production code, as the oracle.
* :func:`profile_steps` — the step function a from-scratch build over a
  set of busy intervals gives; the incrementally kept profile must equal
  it.
* :func:`bisect_earliest` — :meth:`ResourceProfile.earliest` with one
  bisect per candidate for the window end, the form the forward pointer
  replaced; the two must agree on every profile.
* :func:`assert_plans_tight` — after a *full* replanning pass no scheduled
  job may be placeable earlier than its reservation.
"""

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from repro.oar.request import ALL_NODES
from repro.util.errors import SchedulingError

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Reservation:
    start: float
    end: float
    job_id: int


class NodeTimeline:
    """Sorted, non-overlapping reservations for one node."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._reservations: list[Reservation] = []

    def __len__(self) -> int:
        return len(self._reservations)

    def __iter__(self) -> Iterator[Reservation]:
        return iter(self._reservations)

    def is_free(self, start: float, end: float) -> bool:
        """True if no reservation overlaps [start, end)."""
        if end <= start:
            raise SchedulingError(f"empty interval [{start}, {end})")
        idx = bisect.bisect_right(self._starts, start)
        if idx > 0 and self._reservations[idx - 1].end > start:
            return False
        if idx < len(self._reservations) and self._reservations[idx].start < end:
            return False
        return True

    def add(self, reservation: Reservation) -> None:
        if not self.is_free(reservation.start, reservation.end):
            raise SchedulingError(
                f"overlapping reservation {reservation} on busy timeline")
        idx = bisect.bisect_right(self._starts, reservation.start)
        self._starts.insert(idx, reservation.start)
        self._reservations.insert(idx, reservation)

    def remove_job(self, job_id: int) -> int:
        """Drop all reservations of one job; returns how many were removed."""
        keep = [(s, r) for s, r in zip(self._starts, self._reservations)
                if r.job_id != job_id]
        removed = len(self._reservations) - len(keep)
        self._starts = [s for s, _ in keep]
        self._reservations = [r for _, r in keep]
        return removed

    def truncate_job(self, job_id: int, end: float) -> None:
        """Shorten the job's reservation covering or following ``end``;
        truncating at/before its start drops it entirely."""
        for i, r in enumerate(self._reservations):
            if r.job_id == job_id and r.end > end:
                if end <= r.start:
                    del self._starts[i]
                    del self._reservations[i]
                else:
                    self._reservations[i] = Reservation(r.start, end, job_id)
                return

    def busy_until(self, t: float) -> float:
        """End of the reservation covering ``t`` (or ``t`` if free)."""
        idx = bisect.bisect_right(self._starts, t)
        if idx > 0 and self._reservations[idx - 1].end > t:
            return self._reservations[idx - 1].end
        return t

    def next_fit(self, after: float, duration: float) -> float:
        """Earliest ``s >= after`` with ``[s, s + duration)`` free (always
        finite: the timeline's tail is an unbounded free window)."""
        reservations = self._reservations
        idx = bisect.bisect_right(self._starts, after)
        t = after
        if idx > 0 and reservations[idx - 1].end > t:
            t = reservations[idx - 1].end
        while idx < len(reservations):
            r = reservations[idx]
            if r.start - t >= duration:
                return t
            if r.end > t:
                t = r.end
            idx += 1
        return t

    def release_points(self, after: float) -> list[float]:
        """Reservation end times > ``after`` (candidate start times)."""
        return sorted({r.end for r in self._reservations if r.end > after})

    def purge_before(self, t: float) -> None:
        """Forget reservations that ended before ``t``."""
        keep = [(s, r) for s, r in zip(self._starts, self._reservations)
                if r.end >= t]
        self._starts = [s for s, _ in keep]
        self._reservations = [r for _, r in keep]


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


class TimelineGantt:
    """A Gantt as one :class:`NodeTimeline` per node, with the same
    mutators as :class:`repro.oar.gantt.Gantt`."""

    def __init__(self, node_uids: Iterable[str]) -> None:
        self.timelines = {uid: NodeTimeline() for uid in node_uids}

    # -- mutators ---------------------------------------------------------------

    def reserve(self, uids: Iterable[str], start: float, end: float,
                job_id: int) -> None:
        reserved = []
        try:
            for uid in uids:
                self.timelines[uid].add(Reservation(start, end, job_id))
                reserved.append(uid)
        except SchedulingError:
            for uid in reserved:  # roll back the partial reservation
                self.timelines[uid].remove_job(job_id)
            raise

    def release(self, job_id: int) -> None:
        for timeline in self.timelines.values():
            timeline.remove_job(job_id)

    def truncate(self, uids: Iterable[str], job_id: int, end: float) -> None:
        for uid in uids:
            self.timelines[uid].truncate_job(job_id, end)

    def purge_before(self, t: float) -> None:
        for timeline in self.timelines.values():
            timeline.purge_before(t)

    def busy(self, bit_of) -> Iterator[tuple[float, float, int]]:
        """Every reservation as a ``(start, end, one-bit mask)`` interval."""
        for uid, timeline in self.timelines.items():
            for r in timeline:
                yield r.start, r.end, 1 << bit_of(uid)

    # -- queries ----------------------------------------------------------------

    def is_free(self, uid: str, start: float, end: float) -> bool:
        return self.timelines[uid].is_free(start, end)

    def free_nodes(self, uids: Iterable[str], start: float,
                   end: float) -> list[str]:
        return [u for u in uids if self.timelines[u].is_free(start, end)]

    def candidate_starts(self, uids: Iterable[str], after: float) -> list[float]:
        """``after`` plus every release point on the candidate nodes."""
        times = {after}
        for uid in uids:
            times.update(self.timelines[uid].release_points(after))
        return sorted(times)

    def earliest_start(self, uids: list[str], after: float, duration: float,
                       k: int) -> Optional[float]:
        """Earliest ``t >= after`` when ``k`` of ``uids`` are free together
        over ``[t, t + duration)``: the next-fit fixpoint for the whole
        set, the interval sweep otherwise."""
        if k < 1 or k > len(uids):
            return None
        if k == len(uids):
            return self.whole_set_start(uids, after, duration)
        return self.linear_earliest_start(uids, after, duration, k)

    def whole_set_start(self, uids: list[str], after: float,
                        duration: float) -> float:
        """Fixpoint of "advance to every node's next window"."""
        timelines = [self.timelines[u] for u in uids]
        t = after
        while True:
            worst = t
            for tl in timelines:
                s = tl.next_fit(t, duration)
                if s > worst:
                    worst = s
            if worst == t:
                return t
            t = worst

    def linear_earliest_start(self, uids: list[str], after: float,
                              duration: float, k: int) -> Optional[float]:
        """Interval sweep: each free window ``[s, e)`` long enough for
        ``duration`` lets its node host a start anywhere in ``[s, e -
        duration]``; the answer is the first sweep point where at least
        ``k`` host intervals overlap."""
        timelines = [self.timelines[u] for u in uids]
        # Idle nodes can all host a start at `after`.
        idle = sum(1 for tl in timelines if not tl._reservations)
        if idle >= k:
            return after
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

    def multi_part(self, parts: list[tuple[list[str], Union[int, str]]],
                   after: float, walltime: float):
        """Multi-part placement by a scan over the candidates' release
        points; ``parts`` holds ``(candidate uids, count or ALL)``."""
        all_candidates = sorted({u for c, _ in parts for u in c})
        for start in self.candidate_starts(all_candidates, after):
            assignment: list[tuple[str, ...]] = []
            taken: set[str] = set()
            for candidates, count in parts:
                rest = [u for u in candidates if u not in taken]
                free = self.free_nodes(rest, start, start + walltime)
                if count == ALL_NODES:
                    if len(free) < len(rest):
                        break
                    chosen = free
                elif len(free) < count:
                    break
                else:
                    chosen = free[:count]
                assignment.append(tuple(chosen))
                taken.update(chosen)
            else:
                return start, tuple(assignment)
        return None


def profile_steps(busy: Iterable[tuple[float, float, int]],
                  full: int) -> tuple[list[float], list[int]]:
    """The coalesced ``(times, masks)`` step function of free-node masks
    over ``(start, end, mask)`` busy intervals, built in one sweep.  A bit
    released and re-acquired at the same instant (back-to-back
    reservations) stays busy across the boundary."""
    acquire: dict[float, int] = {}
    release: dict[float, int] = {}
    for start, end, mask in busy:
        if end <= start or mask == 0:
            continue
        acquire[start] = acquire.get(start, 0) | mask
        release[end] = release.get(end, 0) | mask
    times: list[float] = [_NEG_INF]
    masks: list[int] = [full]
    current = full
    for t in sorted(set(acquire) | set(release)):
        nxt = (current | release.get(t, 0)) & ~acquire.get(t, 0)
        if nxt != current:
            times.append(t)
            masks.append(nxt)
            current = nxt
    return times, masks


def bisect_earliest(profile, mask: int, after: float, duration: float,
                    k: int) -> Optional[float]:
    """:meth:`ResourceProfile.earliest`, bisecting each candidate's window
    end with the same float form (the fits-now and event forms at
    ``after``, then the event form for k of n and the window-end form for
    the whole set)."""
    if k < 1:
        return None
    times = profile._times
    masks = profile._masks
    hits = profile._window_hits
    n = len(times)
    whole = k == mask.bit_count()
    i = bisect.bisect_right(times, after) - 1
    avail = masks[i] & mask
    if avail.bit_count() >= k:
        j = bisect.bisect_left(times, duration, i + 1, n,
                               key=lambda b: b - after)
        if hits(avail, i, j, k):
            return after
        if not whole:
            j = bisect.bisect_left(times, after, i + 1, n,
                                   key=lambda b: b - duration)
            if hits(avail, i, j, k):
                return after
    while True:
        i += 1
        if i >= n:
            return None
        t = times[i]
        avail = masks[i] & mask
        if avail.bit_count() >= k:
            if whole:
                j = bisect.bisect_left(times, duration, i + 1, n,
                                       key=lambda b: b - t)
            else:
                j = bisect.bisect_left(times, t, i + 1, n,
                                       key=lambda b: b - duration)
            if hits(avail, i, j, k):
                return t


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
