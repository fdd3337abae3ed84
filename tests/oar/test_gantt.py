"""Tests for the Gantt and for the per-node reference timeline the
differential tests replay against (unit + property-based)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oar import Gantt
from repro.util import SchedulingError

from oar_reference import NodeTimeline, Reservation, TimelineGantt, free_intervals


def test_empty_timeline_is_free():
    tl = NodeTimeline()
    assert tl.is_free(0.0, 100.0)


def test_reservation_blocks_interval():
    tl = NodeTimeline()
    tl.add(Reservation(10.0, 20.0, 1))
    assert not tl.is_free(10.0, 20.0)
    assert not tl.is_free(15.0, 16.0)
    assert not tl.is_free(5.0, 11.0)
    assert not tl.is_free(19.0, 30.0)


def test_adjacent_intervals_are_free():
    tl = NodeTimeline()
    tl.add(Reservation(10.0, 20.0, 1))
    assert tl.is_free(0.0, 10.0)
    assert tl.is_free(20.0, 30.0)


def test_overlapping_add_raises():
    tl = NodeTimeline()
    tl.add(Reservation(10.0, 20.0, 1))
    with pytest.raises(SchedulingError):
        tl.add(Reservation(15.0, 25.0, 2))


def test_empty_interval_rejected():
    tl = NodeTimeline()
    with pytest.raises(SchedulingError):
        tl.is_free(5.0, 5.0)


def test_remove_job():
    tl = NodeTimeline()
    tl.add(Reservation(0.0, 10.0, 1))
    tl.add(Reservation(10.0, 20.0, 2))
    assert tl.remove_job(1) == 1
    assert tl.is_free(0.0, 10.0)
    assert not tl.is_free(10.0, 20.0)


def test_truncate_job_frees_tail():
    tl = NodeTimeline()
    tl.add(Reservation(0.0, 100.0, 1))
    tl.truncate_job(1, 30.0)
    assert tl.is_free(30.0, 100.0)
    assert not tl.is_free(0.0, 30.0)


def test_truncate_at_or_before_start_drops_reservation():
    # Regression: a job released at/before its scheduled start used to
    # leave a zero-length [start, start) residue whose stale entry in
    # _starts distorted release_points/candidate_starts until purge.
    tl = NodeTimeline()
    tl.add(Reservation(50.0, 100.0, 7))
    tl.truncate_job(7, 50.0)  # released exactly at start
    assert len(tl) == 0
    assert tl.is_free(0.0, 200.0)
    assert tl.release_points(0.0) == []

    tl.add(Reservation(50.0, 100.0, 8))
    tl.truncate_job(8, 10.0)  # released before start
    assert len(tl) == 0
    assert tl.release_points(0.0) == []
    # the slot is genuinely reusable
    tl.add(Reservation(50.0, 100.0, 9))
    assert not tl.is_free(50.0, 100.0)


def test_truncate_keeps_other_jobs_intact():
    tl = NodeTimeline()
    tl.add(Reservation(0.0, 10.0, 1))
    tl.add(Reservation(10.0, 20.0, 2))
    tl.truncate_job(1, 0.0)  # drops job 1 entirely
    assert tl.release_points(0.0) == [20.0]
    assert [r.job_id for r in tl] == [2]


def test_busy_until():
    tl = NodeTimeline()
    tl.add(Reservation(10.0, 20.0, 1))
    assert tl.busy_until(15.0) == 20.0
    assert tl.busy_until(5.0) == 5.0
    assert tl.busy_until(20.0) == 20.0  # end is exclusive


def test_release_points():
    tl = NodeTimeline()
    tl.add(Reservation(0.0, 10.0, 1))
    tl.add(Reservation(10.0, 25.0, 2))
    assert tl.release_points(after=0.0) == [10.0, 25.0]
    assert tl.release_points(after=10.0) == [25.0]


def test_purge_before():
    tl = NodeTimeline()
    tl.add(Reservation(0.0, 10.0, 1))
    tl.add(Reservation(50.0, 60.0, 2))
    tl.purge_before(20.0)
    assert len(tl) == 1
    assert tl.is_free(0.0, 10.0)


def _free(g, uids, start, end):
    return g.free_uids(g.mask_for(uids), start, end)


def test_gantt_reserve_and_release():
    g = Gantt(["a", "b", "c"])
    g.reserve(g.mask_for(["a", "b"]), 0.0, 10.0, job_id=1)
    assert _free(g, ["a", "b", "c"], 0.0, 10.0) == ["c"]
    g.release(job_id=1)
    assert _free(g, ["a", "b", "c"], 0.0, 10.0) == ["a", "b", "c"]


def test_gantt_reserve_rolls_back_on_conflict():
    g = Gantt(["a", "b"])
    g.reserve(g.mask_for(["b"]), 0.0, 10.0, job_id=1)
    with pytest.raises(SchedulingError):
        g.reserve(g.mask_for(["a", "b"]), 5.0, 15.0, job_id=2)
    # "a" must not be left half-reserved by job 2
    assert _free(g, ["a"], 0.0, 100.0) == ["a"]
    assert 2 not in g._ledger


def test_gantt_candidate_starts():
    ref = TimelineGantt(["a", "b"])
    ref.reserve(["a"], 0.0, 10.0, job_id=1)
    ref.reserve(["b"], 5.0, 12.0, job_id=2)
    assert ref.candidate_starts(["a", "b"], after=0.0) == [0.0, 10.0, 12.0]
    # The profile's start walk covers every release point (and more).
    g = Gantt(["a", "b"])
    g.reserve(g.mask_for(["a"]), 0.0, 10.0, job_id=1)
    g.reserve(g.mask_for(["b"]), 5.0, 12.0, job_id=2)
    assert g.profile.starts_from(0.0) == [0.0, 5.0, 10.0, 12.0]


# -- property-based invariants -------------------------------------------------

_intervals = st.lists(
    st.tuples(st.floats(0, 1000, allow_nan=False), st.floats(1, 100, allow_nan=False)),
    min_size=1,
    max_size=30,
)


@given(_intervals)
def test_timeline_never_overlaps(raw):
    """Whatever insertion order, accepted reservations never overlap."""
    tl = NodeTimeline()
    accepted = []
    for i, (start, length) in enumerate(raw):
        end = start + length
        try:
            tl.add(Reservation(start, end, i))
            accepted.append((start, end))
        except SchedulingError:
            pass
    accepted.sort()
    for (s1, e1), (s2, e2) in zip(accepted, accepted[1:]):
        assert e1 <= s2


@given(_intervals)
def test_is_free_consistent_with_add(raw):
    """is_free(x) == add(x) succeeds — checked by trying both."""
    tl = NodeTimeline()
    for i, (start, length) in enumerate(raw):
        end = start + length
        free = tl.is_free(start, end)
        try:
            tl.add(Reservation(start, end, i))
            added = True
        except SchedulingError:
            added = False
        assert free == added


@given(_intervals, st.floats(0, 1200, allow_nan=False))
def test_remove_restores_freedom(raw, probe):
    tl = NodeTimeline()
    for i, (start, length) in enumerate(raw):
        try:
            tl.add(Reservation(start, start + length, i))
        except SchedulingError:
            pass
    for i in range(len(raw)):
        tl.remove_job(i)
    assert tl.is_free(probe, probe + 1.0)


# -- next_fit ------------------------------------------------------------------


def test_next_fit_on_empty_timeline_is_after():
    assert NodeTimeline().next_fit(5.0, 10.0) == 5.0


def test_next_fit_skips_covering_and_dense_reservations():
    tl = NodeTimeline()
    tl.add(Reservation(0.0, 10.0, 1))
    tl.add(Reservation(12.0, 20.0, 2))   # 2-wide gap, too small for 5
    tl.add(Reservation(26.0, 30.0, 3))   # 6-wide gap, fits 5
    assert tl.next_fit(5.0, 5.0) == 20.0
    assert tl.next_fit(5.0, 2.0) == 10.0  # the small gap fits 2
    assert tl.next_fit(5.0, 7.0) == 30.0  # only the unbounded tail fits 7
    assert tl.next_fit(21.0, 5.0) == 21.0


def test_next_fit_agrees_with_free_intervals():
    tl = NodeTimeline()
    for start, end, jid in ((3.0, 7.0, 1), (9.0, 14.0, 2), (20.0, 21.0, 3)):
        tl.add(Reservation(start, end, jid))
    for after in (0.0, 3.0, 6.5, 8.0, 15.0, 30.0):
        for duration in (0.5, 2.0, 10.0):
            want = min(s for s, e in free_intervals(tl, after)
                       if e - s >= duration)
            assert tl.next_fit(after, duration) == want, (after, duration)


def test_free_intervals_ignores_ancient_history():
    tl = NodeTimeline()
    for i in range(10):
        tl.add(Reservation(i * 10.0, i * 10.0 + 5.0, i + 1))
    assert free_intervals(tl, 73.0) == [(75.0, 80.0), (85.0, 90.0),
                                        (95.0, float("inf"))]
    # `after` inside a reservation: the window opens at its end
    assert free_intervals(tl, 91.0) == [(95.0, float("inf"))]


# -- release and truncate read the ledger ------------------------------------
#
# Regression: Gantt.release once freed profile bits from the caller's
# ``start`` hint, and a stale hint freed the wrong window.  Release now
# frees exactly the intervals the job's ledger holds.


def _profile_agrees_with_reference(g, ref, probes):
    """Every profile answer must match the reference timeline scan."""
    uids = sorted(ref.timelines)
    mask = g.mask_for(uids)
    for start, end in probes:
        want = ref.free_nodes(uids, start, end)
        assert g.free_uids(mask, start, end) == want, (start, end)


_PROBES = [(0.0, 5.0), (5.0, 15.0), (10.0, 20.0), (12.0, 28.0),
           (20.0, 30.0), (30.0, 40.0), (0.0, 100.0)]


def _both(uids):
    return Gantt(uids), TimelineGantt(uids)


def _nodes(x, uids):
    """A Gantt takes node masks; the reference takes the uids."""
    return x.mask_for(uids) if isinstance(x, Gantt) else uids


def test_gantt_release_with_stale_hint_frees_actual_interval():
    """Release frees the job's real [10, 20) window and nothing of job 2
    (the start hint this test once passed is gone with the ledger)."""
    g, ref = _both(["a", "b"])
    for x in (g, ref):
        x.reserve(_nodes(x, ["a", "b"]), 10.0, 20.0, 1)
        x.reserve(_nodes(x, ["a"]), 30.0, 40.0, 2)
        x.release(1)
    assert _free(g, ["a", "b"], 10.0, 20.0) == ["a", "b"]
    assert _free(g, ["a"], 30.0, 40.0) == []
    _profile_agrees_with_reference(g, ref, _PROBES)


def test_gantt_truncate_then_hinted_release_keeps_profile_consistent():
    """An early release shortens the job to [10, 15); the later release
    (which once carried the original start as a hint) frees only that."""
    g, ref = _both(["a", "b"])
    for x in (g, ref):
        x.reserve(_nodes(x, ["a", "b"]), 10.0, 30.0, 1)
        x.truncate(_nodes(x, ["a", "b"]), 1, end=15.0)
        x.release(1)
    _profile_agrees_with_reference(g, ref, _PROBES)
    for x in (g, ref):
        x.reserve(_nodes(x, ["a"]), 10.0, 30.0, 3)  # the slot is genuinely reusable
    _profile_agrees_with_reference(g, ref, _PROBES)


def test_gantt_truncate_at_start_drops_reservation_in_profile():
    g, ref = _both(["a"])
    for x in (g, ref):
        x.reserve(_nodes(x, ["a"]), 50.0, 100.0, 7)
        x.truncate(_nodes(x, ["a"]), 7, end=50.0)  # released at its scheduled start
    assert 7 not in g._ledger
    assert _free(g, ["a"], 0.0, 200.0) == ["a"]
    # A release of the already-dropped job must be a no-op.
    for x in (g, ref):
        x.release(7)
    _profile_agrees_with_reference(g, ref, [(0.0, 200.0), (50.0, 100.0)])
