"""Per-node allocation timeline (the scheduler's Gantt chart).

Each node has a sorted list of ``(start, end, job_id)`` reservations.  The
scheduler asks two questions:

* is a node free over ``[t, t+d)``?
* what candidate start times after ``t`` are worth trying? (interval ends)

Conservative backfilling emerges naturally: reservations of
earlier-submitted jobs stay in the Gantt, and later jobs simply search for
the earliest window that fits around them.

Two representations coexist:

* ``NodeTimeline`` — the per-node source of truth (sorted reservations).
* ``ResourceProfile`` — a derived park-wide availability index: a step
  function from time to the *bitmask of free nodes*, maintained
  incrementally by :meth:`Gantt.reserve`/:meth:`Gantt.release`/
  :meth:`Gantt.truncate` and rebuilt lazily after anything else touches a
  timeline.  Placement queries (``earliest_start``, free-set probes)
  bisect the profile instead of scanning every candidate timeline, which
  turns the per-job placement cost from O(nodes x reservations) into
  O(log steps + steps-in-window) — the difference between thousand-job
  and million-job campaigns.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..util.errors import SchedulingError

__all__ = ["Reservation", "NodeTimeline", "ResourceProfile", "Gantt"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Reservation:
    start: float
    end: float
    job_id: int


class NodeTimeline:
    """Sorted, non-overlapping reservations for one node."""

    __slots__ = ("_starts", "_reservations")

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
                f"overlapping reservation {reservation} on busy timeline"
            )
        idx = bisect.bisect_right(self._starts, reservation.start)
        self._starts.insert(idx, reservation.start)
        self._reservations.insert(idx, reservation)

    def pop_job(self, job_id: int, start: Optional[float] = None) -> list[Reservation]:
        """Drop all reservations of one job; returns the removed entries.

        ``start`` is the scheduler's hint of where the job's reservation
        sits (a job holds at most one interval per node, and two intervals
        on one timeline can never share a start): with it the removal is a
        bisect + single deletion instead of a full-list rebuild — releases
        run once per node per completed job, which made the rebuild one of
        the hottest allocations of a campaign.  A stale hint (the
        reservation was truncated away, or never existed) falls back to the
        full scan, so the hint can never drop the wrong job's entry.
        """
        starts = self._starts
        reservations = self._reservations
        if start is not None:
            idx = bisect.bisect_left(starts, start)
            if idx < len(reservations) and reservations[idx].job_id == job_id \
                    and starts[idx] == start:
                hit = reservations[idx]
                del starts[idx]
                del reservations[idx]
                return [hit]
            # Hint missed (e.g. the reservation was truncated): fall through.
        removed: list[Reservation] = []
        for i in range(len(reservations) - 1, -1, -1):
            if reservations[i].job_id == job_id:
                removed.append(reservations[i])
                del starts[i]
                del reservations[i]
        removed.reverse()
        return removed

    def remove_job(self, job_id: int, start: Optional[float] = None) -> int:
        """Drop all reservations of one job; returns how many were removed."""
        return len(self.pop_job(job_id, start))

    def truncate_job(self, job_id: int, end: float) -> Optional[Tuple[float, float]]:
        """Shorten a job's reservation (early release); returns the freed
        ``(start, end)`` interval, or None if nothing changed.

        Truncating to at/before the reservation's start drops the entry
        entirely — a zero-length ``[start, start)`` residue would linger in
        ``_starts`` and distort ``release_points``/``candidate_starts``
        until the next purge.

        Bisects to the reservation covering ``end`` first (the running-job
        shape: every scheduler truncation cuts a reservation that started
        at or before now), scanning forward only for the rare
        entirely-in-the-future entry; reservations strictly before the
        bisect point end at or before ``end`` and can never match.
        """
        starts = self._starts
        reservations = self._reservations
        idx = bisect.bisect_right(starts, end) - 1
        for i in range(max(idx, 0), len(reservations)):
            r = reservations[i]
            if r.job_id == job_id and r.end > end:
                if end <= r.start:
                    del starts[i]
                    del reservations[i]
                    return (r.start, r.end)
                reservations[i] = Reservation(r.start, end, job_id)
                return (end, r.end)
        return None

    def busy_until(self, t: float) -> float:
        """End of the reservation covering ``t`` (or ``t`` if free)."""
        idx = bisect.bisect_right(self._starts, t)
        if idx > 0 and self._reservations[idx - 1].end > t:
            return self._reservations[idx - 1].end
        return t

    def next_fit(self, after: float, duration: float) -> float:
        """Earliest ``s >= after`` with ``[s, s + duration)`` free.

        Always finite (the timeline's tail is an unbounded free window).
        Bisects to the first relevant reservation instead of walking the
        whole list — the building block of the whole-cluster search.
        """
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
        """Forget reservations that ended before ``t`` (memory hygiene on
        long campaigns)."""
        keep = [(s, r) for s, r in zip(self._starts, self._reservations) if r.end >= t]
        self._starts = [s for s, _ in keep]
        self._reservations = [r for _, r in keep]


class ResourceProfile:
    """Park-wide availability index: a step function of free-node bitmasks.

    ``_times[i]`` opens step ``i``, which covers ``[_times[i],
    _times[i+1])`` (the final step is unbounded); ``_masks[i]`` has bit
    ``b`` set iff the node holding bit ``b`` is reservation-free
    throughout the step.  The uid -> bit mapping is fixed at construction
    in the order given (the OAR database's sorted node order), so masks
    from different queries compose with plain ``&``/``|`` and the lowest
    set bits of a free mask are exactly the first free nodes in database
    order.  Adjacent steps never share a mask (every update re-coalesces
    its touched range), keeping the step count proportional to the number
    of distinct reservation boundaries.

    Queries replicate the retired per-node interval sweep bit for bit: a
    node is eligible to host a start at ``t`` iff its free window ``[s,
    e)`` satisfies ``s <= t`` and ``e - duration >= t`` — :meth:`earliest`
    finds the window-end boundary by bisecting on ``times[j] - duration >=
    t``, the very subtraction the sweep used for its event coordinates, so
    golden report hashes survive the refactor unchanged.
    """

    __slots__ = ("_uids", "_bits", "_full", "_times", "_masks")

    def __init__(self, node_uids: Iterable[str]) -> None:
        self._uids: List[str] = list(node_uids)
        self._bits: Dict[str, int] = {u: i for i, u in enumerate(self._uids)}
        self._full: int = (1 << len(self._uids)) - 1
        self._times: List[float] = [_NEG_INF]
        self._masks: List[int] = [self._full]

    def __len__(self) -> int:
        return len(self._times)

    # -- bit bookkeeping ---------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return self._full

    def bit(self, uid: str) -> int:
        return self._bits[uid]

    def mask_for(self, uids: Iterable[str]) -> int:
        bits = self._bits
        mask = 0
        for uid in uids:
            mask |= 1 << bits[uid]
        return mask

    def uids_from_mask(self, mask: int, limit: Optional[int] = None) -> List[str]:
        """Set bits -> node uids, lowest bit (database order) first."""
        out: List[str] = []
        uids = self._uids
        while mask and (limit is None or len(out) < limit):
            low = mask & -mask
            out.append(uids[low.bit_length() - 1])
            mask ^= low
        return out

    # -- maintenance -------------------------------------------------------------

    def rebuild(self, busy: Iterable[Tuple[float, float, int]]) -> None:
        """Reload from scratch out of ``(start, end, mask)`` busy intervals.

        One sweep over the sorted boundary set; a bit both released and
        re-acquired at the same instant (back-to-back reservations) stays
        busy across the boundary, which the coalescing then erases.
        """
        acquire: Dict[float, int] = {}
        release: Dict[float, int] = {}
        for start, end, mask in busy:
            if end <= start or mask == 0:
                continue
            acquire[start] = acquire.get(start, 0) | mask
            release[end] = release.get(end, 0) | mask
        times: List[float] = [_NEG_INF]
        masks: List[int] = [self._full]
        current = self._full
        for t in sorted(set(acquire) | set(release)):
            nxt = (current | release.get(t, 0)) & ~acquire.get(t, 0)
            if nxt != current:
                times.append(t)
                masks.append(nxt)
                current = nxt
        self._times = times
        self._masks = masks

    def _boundary(self, t: float) -> int:
        """Index of the step opening exactly at ``t``, splitting if needed."""
        times = self._times
        idx = bisect.bisect_right(times, t) - 1
        if times[idx] != t:
            idx += 1
            times.insert(idx, t)
            self._masks.insert(idx, self._masks[idx - 1])
        return idx

    def set_busy(self, mask: int, start: float, end: float) -> None:
        self._apply(mask, start, end, busy=True)

    def set_free(self, mask: int, start: float, end: float) -> None:
        self._apply(mask, start, end, busy=False)

    def _apply(self, mask: int, start: float, end: float, busy: bool) -> None:
        if mask == 0 or end <= start:
            return
        i = self._boundary(start)
        j = self._boundary(end)
        masks = self._masks
        if busy:
            inv = ~mask
            for s in range(i, j):
                masks[s] &= inv
        else:
            for s in range(i, j):
                masks[s] |= mask
        # Re-coalesce the touched range: freeing can erase the distinction
        # between neighbouring steps (and the split boundaries themselves
        # may have become redundant).
        times = self._times
        k = min(j, len(times) - 1)
        lo = max(i, 1)
        while k >= lo:
            if masks[k] == masks[k - 1]:
                del times[k]
                del masks[k]
            k -= 1

    # -- queries -----------------------------------------------------------------

    def free_mask(self, mask: int, start: float, end: float) -> int:
        """Bits of ``mask`` free throughout ``[start, end)``."""
        times = self._times
        masks = self._masks
        i = bisect.bisect_right(times, start) - 1
        j = bisect.bisect_left(times, end, i + 1)
        out = masks[i] & mask
        for s in range(i + 1, j):
            if not out:
                break
            out &= masks[s]
        return out

    def free_count(self, mask: int, start: float, end: float) -> int:
        return self.free_mask(mask, start, end).bit_count()

    def _window_hits(self, avail: int, i: int, j: int, k: int) -> bool:
        """Do ``k`` bits of ``avail`` survive intersecting steps (i, j)?"""
        masks = self._masks
        for s in range(i + 1, j):
            avail &= masks[s]
            if avail.bit_count() < k:
                return False
        return True

    def earliest(self, mask: int, after: float, duration: float,
                 k: int) -> Optional[float]:
        """Earliest ``t >= after`` when ``k`` bits of ``mask`` are
        simultaneously free over ``[t, t + duration)``.

        Walks candidate starts (``after`` plus every later step boundary —
        a superset of the reservation-end release points, so no earlier
        feasible start can be skipped); each candidate costs one bisect
        plus a mask intersection over the steps its window covers.  The
        final step's mask is always the full park (reservations are
        finite), so the walk terminates whenever ``k <=
        mask.bit_count()``.

        Float compatibility with the retired sweep, candidate by
        candidate: the sweep's fits-now shortcut admitted ``after`` when
        a window end satisfied ``fl(end - after) >= duration``, while its
        event coordinates encode ``fl(end - duration) >= t`` — identical
        in exact arithmetic, divergent at sub-ULP scales.  ``after``
        therefore wins here if *either* form reaches ``k`` (exactly the
        old control flow); later candidates use the event form only.
        """
        if k < 1:
            return None
        times = self._times
        n = len(times)
        i = bisect.bisect_right(times, after) - 1
        avail = self._masks[i] & mask
        if avail.bit_count() >= k:
            j = bisect.bisect_left(times, duration, i + 1, n,
                                   key=lambda b: b - after)
            if self._window_hits(avail, i, j, k):
                return after
            j = bisect.bisect_left(times, after, i + 1, n,
                                   key=lambda b: b - duration)
            if self._window_hits(avail, i, j, k):
                return after
        while True:
            i += 1
            if i >= n:
                return None
            t = times[i]
            avail = self._masks[i] & mask
            if avail.bit_count() >= k:
                j = bisect.bisect_left(times, t, i + 1, n,
                                       key=lambda b: b - duration)
                if self._window_hits(avail, i, j, k):
                    return t


class Gantt:
    """Timelines for a set of nodes, indexed by a park-wide profile.

    ``NodeTimeline`` objects stay the per-node source of truth; the
    :class:`ResourceProfile` is a derived index kept in lockstep by the
    mutators below.  Handing out a raw timeline via :meth:`timeline` marks
    the index dirty (tests mutate timelines directly); it is then rebuilt
    lazily on the next profile query.
    """

    def __init__(self, node_uids: Iterable[str]) -> None:
        uid_list = list(node_uids)
        self._timelines: dict[str, NodeTimeline] = {
            uid: NodeTimeline() for uid in uid_list
        }
        self._profile = ResourceProfile(uid_list)
        self._profile_dirty = False

    # -- profile plumbing --------------------------------------------------------

    @property
    def profile(self) -> ResourceProfile:
        """The availability index, rebuilt first if something stale-marked it."""
        if self._profile_dirty:
            self._rebuild_profile()
        return self._profile

    def _rebuild_profile(self) -> None:
        prof = self._profile
        prof.rebuild(
            (r.start, r.end, 1 << prof.bit(uid))
            for uid, tl in self._timelines.items()
            for r in tl
        )
        self._profile_dirty = False

    @property
    def full_mask(self) -> int:
        return self._profile.full_mask

    def bit(self, uid: str) -> int:
        return self._profile.bit(uid)

    def mask_for(self, uids: Iterable[str]) -> int:
        """Bitmask of a uid set (stable across profile rebuilds)."""
        return self._profile.mask_for(uids)

    def uids_from_mask(self, mask: int, limit: Optional[int] = None) -> list[str]:
        return self._profile.uids_from_mask(mask, limit)

    def profile_earliest(self, mask: int, after: float, duration: float,
                         k: int) -> Optional[float]:
        """Mask-native :meth:`earliest_start` (hot-path form: callers keep
        cached candidate masks instead of node lists)."""
        if duration <= 0:
            raise SchedulingError(f"non-positive duration: {duration}")
        return self.profile.earliest(mask, after, duration, k)

    def profile_free_mask(self, mask: int, start: float, end: float) -> int:
        return self.profile.free_mask(mask, start, end)

    def free_uids(self, mask: int, start: float, end: float,
                  limit: Optional[int] = None) -> list[str]:
        """First ``limit`` free nodes of ``mask`` over ``[start, end)``, in
        database order (identical to filtering the candidate list through
        ``is_free`` and slicing)."""
        prof = self.profile
        return prof.uids_from_mask(prof.free_mask(mask, start, end), limit)

    # -- timeline access ---------------------------------------------------------

    def timeline(self, uid: str) -> NodeTimeline:
        """Hand out a mutable timeline; the profile index goes stale."""
        self._profile_dirty = True
        return self._timelines[uid]

    def is_free(self, uid: str, start: float, end: float) -> bool:
        return self._timelines[uid].is_free(start, end)

    def free_nodes(self, uids: Iterable[str], start: float, end: float) -> list[str]:
        return [u for u in uids if self._timelines[u].is_free(start, end)]

    # -- mutators (timelines + profile in lockstep) ------------------------------

    def reserve(self, uids: Iterable[str], start: float, end: float, job_id: int) -> None:
        uids = list(uids)
        reserved = []
        try:
            for uid in uids:
                self._timelines[uid].add(Reservation(start, end, job_id))
                reserved.append(uid)
        except SchedulingError:
            for uid in reserved:  # roll back the partial reservation
                self._timelines[uid].remove_job(job_id, start)
            raise
        if not self._profile_dirty:
            self._profile.set_busy(self._profile.mask_for(uids), start, end)

    def release(self, uids: Iterable[str], job_id: int,
                start: Optional[float] = None) -> None:
        timelines = self._timelines
        prof = self._profile
        live = not self._profile_dirty
        freed: dict[tuple[float, float], int] = {}
        for uid in uids:
            removed = timelines[uid].pop_job(job_id, start)
            if live:
                for r in removed:
                    key = (r.start, r.end)
                    freed[key] = freed.get(key, 0) | (1 << prof.bit(uid))
        for (s, e), mask in freed.items():
            prof.set_free(mask, s, e)

    def truncate(self, uids: Iterable[str], job_id: int, end: float) -> None:
        prof = self._profile
        live = not self._profile_dirty
        freed: dict[tuple[float, float], int] = {}
        for uid in uids:
            interval = self._timelines[uid].truncate_job(job_id, end)
            if live and interval is not None:
                freed[interval] = freed.get(interval, 0) | (1 << prof.bit(uid))
        for (s, e), mask in freed.items():
            prof.set_free(mask, s, e)

    def purge_before(self, t: float) -> None:
        for timeline in self._timelines.values():
            timeline.purge_before(t)
        # History that a purge forgets was all in the past; rebuilding the
        # profile from the surviving reservations keeps every query about
        # the present and future identical.
        self._profile_dirty = True

    # -- placement queries -------------------------------------------------------

    def candidate_starts(self, uids: Iterable[str], after: float) -> list[float]:
        """`after` plus every release point on the candidate nodes."""
        times = {after}
        for uid in uids:
            times.update(self._timelines[uid].release_points(after))
        return sorted(times)

    def earliest_start(self, uids: Iterable[str], after: float,
                       duration: float, k: int) -> Optional[float]:
        """Earliest ``t >= after`` when ``k`` of the nodes are simultaneously
        free over ``[t, t + duration)``.

        Routed through the :class:`ResourceProfile` (one bisect walk over
        the park-wide step function).  Whole-set requests (``k ==
        len(uids)``) keep the fixpoint walk over the candidate timelines:
        every node must be probed anyway, and its float arithmetic is
        golden-pinned.
        """
        if duration <= 0:
            raise SchedulingError(f"non-positive duration: {duration}")
        uids = list(uids)
        n = len(uids)
        if k < 1 or k > n:
            return None
        if k == n:
            return self._whole_set_start(uids, after, duration)
        prof = self.profile
        return prof.earliest(prof.mask_for(uids), after, duration, k)

    def _whole_set_start(self, uids: list[str], after: float,
                         duration: float) -> float:
        """Whole-set request: the answer is the fixpoint of "advance to
        every node's next window".  Each pass re-queries only the nodes
        that still conflict (via bisect), instead of building the full
        interval-overlap event list across every timeline."""
        timelines = [self._timelines[u] for u in uids]
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
