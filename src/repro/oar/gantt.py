"""The scheduler's Gantt chart: one park-wide availability profile.

The scheduler asks two questions:

* which nodes are free over ``[t, t+d)``?
* what is the earliest ``t`` when ``k`` of a node set are free together?

Conservative backfilling emerges naturally: reservations of
earlier-submitted jobs stay in the Gantt, and later jobs simply search for
the earliest window that fits around them.

The :class:`ResourceProfile` — a step function from time to the *bitmask
of free nodes* — is the only record of busy time.  :class:`Gantt` pairs it
with a small per-job ledger of the ``(start, end, mask)`` intervals each
job holds, which tells :meth:`Gantt.release`, :meth:`Gantt.truncate` and
:meth:`Gantt.purge_before` which bits to free.  Placement queries bisect
the profile, so the per-job placement cost is O(log steps +
steps-in-window) instead of O(nodes x reservations).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

from ..util.errors import SchedulingError

__all__ = ["ResourceProfile", "Gantt"]

_NEG_INF = float("-inf")


class ResourceProfile:
    """Park-wide availability index: a step function of free-node bitmasks.

    ``_times[i]`` opens step ``i``, which covers ``[_times[i],
    _times[i+1])`` (the final step is unbounded); ``_masks[i]`` has bit
    ``b`` set iff the node holding bit ``b`` is reservation-free
    throughout the step.  The profile knows nodes only as bit positions
    ``0 .. node_count - 1``; :class:`Gantt` owns the uid <-> bit map.
    Masks from different queries compose with plain ``&``/``|``.
    Adjacent steps never share a mask (every update re-coalesces its
    touched range), keeping the step count proportional to the number of
    distinct reservation boundaries.

    Queries replicate the retired per-node searches bit for bit: a node
    is eligible to host a start at ``t`` iff its free window ``[s, e)``
    satisfies ``s <= t`` and ``e - duration >= t`` — :meth:`earliest`
    finds the window-end boundary by bisecting on the very subtraction
    those searches used (see there), so golden report hashes survive the
    refactor unchanged.
    """

    __slots__ = ("_full", "_times", "_masks")

    def __init__(self, node_count: int) -> None:
        self._full: int = (1 << node_count) - 1
        self._times: List[float] = [_NEG_INF]
        self._masks: List[int] = [self._full]

    def __len__(self) -> int:
        return len(self._times)

    @property
    def full_mask(self) -> int:
        return self._full

    # -- maintenance -------------------------------------------------------------

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
        feasible start can be skipped); each candidate costs a search for
        its window end plus a mask intersection over the steps the window
        covers.  The final step's mask is always the full park
        (reservations are finite), so the walk terminates whenever ``k <=
        mask.bit_count()``.

        Float compatibility with the retired per-node searches, candidate
        by candidate.  A k-of-n request reproduces the interval sweep:
        its fits-now shortcut admitted ``after`` when a window end
        satisfied ``fl(end - after) >= duration``, while its event
        coordinates encode ``fl(end - duration) >= t`` — identical in
        exact arithmetic, divergent at sub-ULP scales.  ``after``
        therefore wins if *either* form reaches ``k``; later candidates
        use the event form only.  A whole-set request (``k ==
        mask.bit_count()``) reproduces the per-node next-fit walk, whose
        window-end test is ``fl(end - t) >= duration`` at every
        candidate.

        After ``after``, the window end is a pointer that only moves
        forward, not a bisect per candidate, and it is exact: rounding is
        monotone, so ``fl(b - duration)`` grows and ``fl(b - t)`` shrinks
        as ``t`` grows, each test is monotone in the boundary ``b``, and
        the first boundary that passes never moves back as the candidate
        advances.  The whole walk thus costs O(steps after ``after``)
        pointer moves plus the window intersections.
        """
        if k < 1:
            return None
        times = self._times
        masks = self._masks
        n = len(times)
        whole = k == mask.bit_count()
        i = bisect.bisect_right(times, after) - 1
        avail = masks[i] & mask
        if avail.bit_count() >= k:
            j = bisect.bisect_left(times, duration, i + 1, n,
                                   key=lambda b: b - after)
            if self._window_hits(avail, i, j, k):
                return after
            if not whole:
                j = bisect.bisect_left(times, after, i + 1, n,
                                       key=lambda b: b - duration)
                if self._window_hits(avail, i, j, k):
                    return after
        j = i + 1
        while True:
            i += 1
            if i >= n:
                return None
            t = times[i]
            avail = masks[i] & mask
            if avail.bit_count() >= k:
                if j <= i:
                    j = i + 1
                if whole:
                    while j < n and times[j] - t < duration:
                        j += 1
                else:
                    while j < n and times[j] - duration < t:
                        j += 1
                if self._window_hits(avail, i, j, k):
                    return t

    def starts_from(self, after: float) -> List[float]:
        """``after`` plus every later step boundary: the start times a
        placement search needs to try."""
        times = self._times
        return [after] + times[bisect.bisect_right(times, after):]


class Gantt:
    """The availability profile plus the job ledger.

    The profile is the only record of busy time; the ledger maps each job
    to the ``(start, end, mask)`` intervals it holds, so the mutators know
    which bits to free.  Node sets are bitmasks throughout; the Gantt
    holds the scheduler's one uid <-> bit map, in the order given (the
    OAR database's sorted node order, which the park's alive bits share),
    so the lowest set bits of a mask are its first nodes in that order.
    """

    def __init__(self, node_uids: Iterable[str]) -> None:
        self._uids: List[str] = list(node_uids)
        self._bits: Dict[str, int] = {u: i for i, u in enumerate(self._uids)}
        self.profile = ResourceProfile(len(self._uids))
        self._ledger: Dict[int, List[Tuple[float, float, int]]] = {}

    # -- bit bookkeeping ---------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return self.profile.full_mask

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

    # -- queries -----------------------------------------------------------------

    def profile_earliest(self, mask: int, after: float, duration: float,
                         k: int) -> Optional[float]:
        """Earliest ``t >= after`` when ``k`` nodes of ``mask`` are free
        together over ``[t, t + duration)`` (see
        :meth:`ResourceProfile.earliest`)."""
        if duration <= 0:
            raise SchedulingError(f"non-positive duration: {duration}")
        return self.profile.earliest(mask, after, duration, k)

    def profile_free_mask(self, mask: int, start: float, end: float) -> int:
        return self.profile.free_mask(mask, start, end)

    def free_uids(self, mask: int, start: float, end: float,
                  limit: Optional[int] = None) -> List[str]:
        """First ``limit`` free nodes of ``mask`` over ``[start, end)``, in
        database order."""
        return self.uids_from_mask(self.profile.free_mask(mask, start, end),
                                   limit)

    # -- mutators ----------------------------------------------------------------

    def reserve(self, mask: int, start: float, end: float,
                job_id: int) -> None:
        """Mark the nodes of ``mask`` busy over ``[start, end)`` for
        ``job_id``.

        Raises :class:`SchedulingError`, changing nothing, when the
        interval is empty or any of the nodes is busy somewhere in it.
        """
        if end <= start:
            raise SchedulingError(f"empty interval [{start}, {end})")
        prof = self.profile
        busy = mask & ~prof.free_mask(mask, start, end)
        if busy:
            raise SchedulingError(
                f"job {job_id}: {self.uids_from_mask(busy)} already "
                f"reserved within [{start}, {end})")
        prof.set_busy(mask, start, end)
        self._ledger.setdefault(job_id, []).append((start, end, mask))

    def release(self, job_id: int) -> None:
        """Free every interval the job holds (no-op for an unknown job)."""
        for start, end, mask in self._ledger.pop(job_id, ()):
            self.profile.set_free(mask, start, end)

    def truncate(self, cut: int, job_id: int, end: float) -> None:
        """End the job's intervals on the nodes of ``cut`` at ``end``
        (early release).

        An interval that starts at or after ``end`` is dropped whole, so
        no zero-length residue stays in the ledger.
        """
        held = self._ledger.get(job_id)
        if not held:
            return
        prof = self.profile
        kept: List[Tuple[float, float, int]] = []
        for start, stop, mask in held:
            hit = mask & cut
            if not hit or stop <= end:
                kept.append((start, stop, mask))
                continue
            prof.set_free(hit, max(start, end), stop)
            if mask != hit:
                kept.append((start, stop, mask & ~hit))
            if start < end:
                kept.append((start, end, hit))
        if kept:
            self._ledger[job_id] = kept
        else:
            del self._ledger[job_id]

    def purge_before(self, t: float) -> None:
        """Forget intervals that ended before ``t`` (memory hygiene on
        long campaigns).

        Each forgotten interval is freed in the profile, so the steps
        before ``t`` collapse to those of the surviving intervals; every
        answer about ``t`` and later is unchanged.
        """
        prof = self.profile
        for job_id, held in list(self._ledger.items()):
            kept = [iv for iv in held if iv[1] >= t]
            if len(kept) == len(held):
                continue
            for start, end, mask in held:
                if end < t:
                    prof.set_free(mask, start, end)
            if kept:
                self._ledger[job_id] = kept
            else:
                del self._ledger[job_id]
