"""Differential tests: ResourceProfile vs the linear timeline oracles.

The profile is a derived index; every answer it gives must be
*byte-identical* (same floats, same node choices) to the pre-profile
linear algorithms: the interval sweep kept as the reference model in
``oar_reference.py`` (``linear_earliest_start`` / ``free_intervals``)
and the per-node ``Gantt.free_nodes`` scan.  Random reserve/release/truncate/grow/shrink-shaped
sequences drive both representations through the public mutators, then
every query is cross-checked, including after a forced full rebuild.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.oar.gantt import Gantt, ResourceProfile
from repro.util.errors import SchedulingError

from oar_reference import free_intervals, linear_earliest_start

NODES = ["n0", "n1", "n2", "n3", "n4"]

# Awkward floats on purpose: the profile's eligibility bisect must
# reproduce the sweep's `end - duration >= t` IEEE arithmetic exactly.
TIMES = st.sampled_from(
    [0.0, 0.1, 0.3, 1.0, 2.5, 3.0, 7.7, 10.0, 16.1, 30.0, 100.0 / 3.0, 59.9]
)
DURATIONS = st.sampled_from([0.1, 0.3, 1.0, 2.0, 7.7, 10.0, 33.3])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"),
                  st.sets(st.sampled_from(NODES), min_size=1),
                  TIMES, DURATIONS, st.integers(1, 6)),
        st.tuples(st.just("release"), st.integers(1, 6), st.booleans()),
        st.tuples(st.just("truncate"), st.integers(1, 6), TIMES),
        st.tuples(st.just("purge"), TIMES),
    ),
    max_size=14,
)


def _apply_ops(ops):
    """Drive a Gantt through the public mutators; returns it."""
    g = Gantt(NODES)
    starts = {}  # job_id -> reservation start (the scheduler's hint)
    for op in ops:
        if op[0] == "reserve":
            _, uids, start, dur, job_id = op
            if job_id in starts:
                continue  # one reservation interval per job, like the server
            try:
                g.reserve(sorted(uids), start, start + dur, job_id)
            except SchedulingError:
                continue  # overlap: rolled back, both views unchanged
            starts[job_id] = start
        elif op[0] == "release":
            _, job_id, with_hint = op
            g.release(NODES, job_id, starts.get(job_id) if with_hint else None)
            starts.pop(job_id, None)
        elif op[0] == "truncate":
            _, job_id, t = op
            g.truncate(NODES, job_id, t)
        else:
            g.purge_before(op[1])
    return g


def _profile_free_intervals(prof: ResourceProfile, uid: str, after: float):
    """Reconstruct one node's free windows from the step function."""
    b = 1 << prof.bit(uid)
    out = []
    open_at = None
    for t, mask in zip(prof._times, prof._masks):
        if mask & b:
            if open_at is None:
                open_at = t
        elif open_at is not None:
            if t > after:
                out.append((max(open_at, after), t))
            open_at = None
    assert open_at is not None, "final step must be all-free"
    out.append((max(open_at, after), math.inf))
    return out


def _check_invariants(prof: ResourceProfile):
    times, masks = prof._times, prof._masks
    assert times[0] == float("-inf")
    assert all(a < b for a, b in zip(times, times[1:])), "times strictly increase"
    assert all(a != b for a, b in zip(masks, masks[1:])), "steps are coalesced"
    assert masks[-1] == prof.full_mask, "the unbounded tail is all-free"
    assert all(0 <= m <= prof.full_mask for m in masks)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, after=TIMES, duration=DURATIONS,
       k=st.integers(1, len(NODES)),
       subset=st.sets(st.sampled_from(NODES), min_size=1))
def test_profile_matches_linear_oracles(ops, after, duration, k, subset):
    g = _apply_ops(ops)
    uids = sorted(subset)
    _check_invariants(g.profile)

    # earliest_start: profile walk vs the retired interval sweep.
    got = g.earliest_start(uids, after, duration, k)
    want = linear_earliest_start(g, list(uids), after, duration, k) \
        if 1 <= k <= len(uids) else None
    assert got == want

    # free-set probe: mask intersection vs per-node is_free, same order.
    fmask = g.profile_free_mask(g.mask_for(uids), after, after + duration)
    assert g.uids_from_mask(fmask) == g.free_nodes(uids, after, after + duration)

    # per-node free windows: step function vs the reference free_intervals.
    for uid in uids:
        assert _profile_free_intervals(g.profile, uid, after) == \
            free_intervals(g._timelines[uid], after)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_incremental_profile_equals_rebuild(ops):
    """The incrementally maintained step function is exactly the one a
    from-scratch rebuild produces (same boundaries, same masks)."""
    g = _apply_ops(ops)
    inc = (list(g.profile._times), list(g.profile._masks))
    g._profile_dirty = True
    g._rebuild_profile()
    assert (g._profile._times, g._profile._masks) == inc


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, after=TIMES, duration=DURATIONS, k=st.integers(1, 4))
def test_profile_survives_direct_timeline_mutation(ops, after, duration, k):
    """timeline() hands out a mutable view and must stale-mark the index."""
    g = _apply_ops(ops)
    tl = g.timeline("n2")
    assert g._profile_dirty
    tl.purge_before(math.inf)  # wipe n2 behind the profile's back
    got = g.earliest_start(NODES, after, duration, k)
    assert got == linear_earliest_start(g, list(NODES), after, duration, k)


def test_failed_reserve_keeps_profile_consistent():
    g = Gantt(NODES)
    g.reserve(["n1"], 10.0, 20.0, 1)
    with pytest.raises(SchedulingError):
        g.reserve(["n0", "n1", "n2"], 5.0, 15.0, 2)  # n1 overlaps: rollback
    # Rollback left the timelines as before; the profile must agree.
    assert g.free_nodes(NODES, 5.0, 15.0) == ["n0", "n2", "n3", "n4"]
    fmask = g.profile_free_mask(g.full_mask, 5.0, 15.0)
    assert g.uids_from_mask(fmask) == ["n0", "n2", "n3", "n4"]
    inc = (list(g.profile._times), list(g.profile._masks))
    g._profile_dirty = True
    assert (g.profile._times, g.profile._masks) == inc


def test_truncate_then_hinted_release_frees_exactly_once():
    """A truncated reservation released with the original start hint must
    not double-free the tail in the profile (the hint bisect still finds
    the entry: truncation keeps the start)."""
    g = Gantt(NODES)
    g.reserve(["n0", "n1"], 10.0, 50.0, 1)
    g.truncate(["n0", "n1"], 1, 30.0)       # early completion at t=30
    g.release(["n0", "n1"], 1, start=10.0)  # then teardown with stale-ish hint
    inc = (list(g.profile._times), list(g.profile._masks))
    g._profile_dirty = True
    assert (g.profile._times, g.profile._masks) == inc
    assert g.free_nodes(NODES, 0.0, 100.0) == NODES


def test_truncate_at_start_then_hinted_release_is_noop():
    """Truncating at/before the start drops the entry; a later hinted
    release must remove nothing and leave the profile consistent."""
    g = Gantt(NODES)
    g.reserve(["n3"], 10.0, 50.0, 7)
    g.truncate(["n3"], 7, 10.0)             # dropped entirely
    assert len(g._timelines["n3"]) == 0
    g.release(["n3"], 7, start=10.0)        # stale hint: nothing to remove
    assert g.free_nodes(NODES, 0.0, 100.0) == NODES
    inc = (list(g.profile._times), list(g.profile._masks))
    g._profile_dirty = True
    assert (g.profile._times, g.profile._masks) == inc
