"""Differential tests: the Gantt's profile vs the per-node reference model.

The availability profile is the Gantt's only record of busy time; every
answer it gives must be *byte-identical* (same floats, same node choices)
to the per-node timelines kept as the reference model in
``oar_reference.py``.  One random reserve/release/truncate/purge history
is replayed on both, then every query is cross-checked: earliest start
for k < n and for the whole set, free-set probes, per-node free windows
and multi-part placement.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.oar.gantt import Gantt, ResourceProfile
from repro.oar.request import ALL_NODES
from repro.oar.server import _multi_part_assignment
from repro.util.errors import SchedulingError

from oar_reference import TimelineGantt, free_intervals, profile_steps

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
        st.tuples(st.just("release"), st.integers(1, 6)),
        st.tuples(st.just("truncate"),
                  st.sets(st.sampled_from(NODES), min_size=1),
                  st.integers(1, 6), TIMES),
        st.tuples(st.just("purge"), TIMES),
    ),
    max_size=14,
)

_PARTS = st.lists(
    st.tuples(st.sets(st.sampled_from(NODES), min_size=1),
              st.one_of(st.integers(1, 3), st.just(ALL_NODES))),
    min_size=2, max_size=3,
)


def _replay(ops):
    """Drive a Gantt and the reference through the same history."""
    g, ref = Gantt(NODES), TimelineGantt(NODES)
    reserved = set()
    for op in ops:
        if op[0] == "reserve":
            _, uids, start, dur, job_id = op
            if job_id in reserved:
                continue  # one reservation interval per job, like the server
            uids = sorted(uids)
            try:
                ref.reserve(uids, start, start + dur, job_id)
            except SchedulingError:
                with pytest.raises(SchedulingError):
                    g.reserve(g.mask_for(uids), start, start + dur, job_id)
                continue
            g.reserve(g.mask_for(uids), start, start + dur, job_id)
            reserved.add(job_id)
        elif op[0] == "release":
            g.release(op[1])
            ref.release(op[1])
            reserved.discard(op[1])
        elif op[0] == "truncate":
            _, uids, job_id, t = op
            g.truncate(g.mask_for(uids), job_id, t)
            ref.truncate(sorted(uids), job_id, t)
        else:
            g.purge_before(op[1])
            ref.purge_before(op[1])
    return g, ref


def _profile_free_intervals(prof: ResourceProfile, bit: int, after: float):
    """Reconstruct one node's free windows from the step function."""
    b = 1 << bit
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


def _steps(g):
    return list(g.profile._times), list(g.profile._masks)


def _ledger_steps(g):
    busy = [iv for held in g._ledger.values() for iv in held]
    return profile_steps(busy, g.full_mask)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, after=TIMES, duration=DURATIONS,
       k=st.integers(1, len(NODES)),
       subset=st.sets(st.sampled_from(NODES), min_size=1))
def test_profile_matches_linear_oracles(ops, after, duration, k, subset):
    g, ref = _replay(ops)
    uids = sorted(subset)
    mask = g.mask_for(uids)
    _check_invariants(g.profile)

    # earliest start for k of n: profile walk vs the interval sweep.
    got = g.profile_earliest(mask, after, duration, k)
    assert got == ref.earliest_start(uids, after, duration, k)
    # ... and for the whole set: profile walk vs the next-fit fixpoint.
    got = g.profile_earliest(mask, after, duration, len(uids))
    assert got == ref.whole_set_start(uids, after, duration)

    # free-set probes: mask intersection vs per-node is_free, same order.
    want = ref.free_nodes(uids, after, after + duration)
    assert g.free_uids(mask, after, after + duration) == want
    assert g.free_uids(mask, after, after + duration, k) == want[:k]
    fmask = g.profile_free_mask(mask, after, after + duration)
    assert fmask == g.mask_for(want)

    # per-node free windows: step function vs the reference free_intervals.
    for uid in uids:
        assert _profile_free_intervals(g.profile, g.bit(uid), after) == \
            free_intervals(ref.timelines[uid], after)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, parts=_PARTS, after=TIMES, duration=DURATIONS)
def test_multi_part_matches_reference(ops, parts, after, duration):
    """Mask walk over every profile boundary vs the reference scan over
    the candidates' release points: same start, same nodes per part."""
    g, ref = _replay(ops)
    mask_parts = [(g.mask_for(c), count) for c, count in parts]
    uid_parts = [(sorted(c), count) for c, count in parts]
    got = _multi_part_assignment(g, mask_parts, after, duration)
    if got is not None:
        start, masks = got
        got = start, tuple(tuple(g.uids_from_mask(m)) for m in masks)
    assert got == ref.multi_part(uid_parts, after, duration)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_incremental_profile_equals_rebuild(ops):
    """The incrementally maintained step function is exactly the one a
    from-scratch build produces, from the job ledger and from the
    reference timelines alike (same boundaries, same masks)."""
    g, ref = _replay(ops)
    assert _steps(g) == _ledger_steps(g)
    assert _steps(g) == profile_steps(ref.busy(g.bit), g.full_mask)


# -- ledger semantics -----------------------------------------------------------


def test_failed_reserve_keeps_profile_consistent():
    """A reserve that hits a busy bit raises and mutates nothing."""
    g = Gantt(NODES)
    g.reserve(g.mask_for(["n1"]), 10.0, 20.0, 1)
    before = (_steps(g), {j: list(h) for j, h in g._ledger.items()})
    with pytest.raises(SchedulingError):
        g.reserve(g.mask_for(["n0", "n1", "n2"]), 5.0, 15.0, 2)  # n1 overlaps
    with pytest.raises(SchedulingError):
        g.reserve(g.mask_for(["n0"]), 5.0, 5.0, 3)  # empty interval
    assert (_steps(g), g._ledger) == before
    fmask = g.profile_free_mask(g.full_mask, 5.0, 15.0)
    assert g.uids_from_mask(fmask) == ["n0", "n2", "n3", "n4"]


def test_release_frees_exactly_the_ledger_once():
    g = Gantt(NODES)
    g.reserve(g.mask_for(["n0", "n1"]), 10.0, 50.0, 1)
    g.reserve(g.mask_for(["n0"]), 50.0, 60.0, 2)
    g.reserve(g.mask_for(["n3"]), 0.0, 5.0, 1)  # a second interval of job 1
    g.release(1)
    assert 1 not in g._ledger
    assert _steps(g) == profile_steps([(50.0, 60.0, 1)], g.full_mask)
    g.release(1)  # nothing left to free
    g.release(9)  # never reserved
    assert _steps(g) == profile_steps([(50.0, 60.0, 1)], g.full_mask)


def test_truncate_then_hinted_release_frees_exactly_once():
    """A truncated job released later (the release once carried the
    original start as a hint) must not free the cut tail a second time."""
    g = Gantt(NODES)
    g.reserve(g.mask_for(["n2"]), 30.0, 50.0, 2)
    g.reserve(g.mask_for(["n0", "n1"]), 10.0, 50.0, 1)
    g.truncate(g.mask_for(["n0", "n1"]), 1, 30.0)   # early completion at t=30
    g.reserve(g.mask_for(["n0"]), 30.0, 40.0, 3)    # the cut tail is reused at once
    g.release(1)                        # then teardown
    assert _steps(g) == _ledger_steps(g)
    assert g.free_uids(g.full_mask, 30.0, 40.0) == ["n1", "n3", "n4"]
    assert g.free_uids(g.full_mask, 0.0, 30.0) == NODES


def test_truncate_at_start_then_hinted_release_is_noop():
    """Truncating at/before the start drops the interval from the
    ledger; a later release then has nothing to free."""
    g = Gantt(NODES)
    g.reserve(g.mask_for(["n3"]), 10.0, 50.0, 7)
    g.truncate(g.mask_for(["n3"]), 7, 10.0)         # dropped entirely
    assert 7 not in g._ledger
    g.reserve(g.mask_for(["n4"]), 10.0, 50.0, 8)
    g.truncate(g.mask_for(["n4"]), 8, 5.0)          # before the start: dropped too
    assert 8 not in g._ledger
    g.release(7)
    assert len(g.profile) == 1
    assert g.free_uids(g.full_mask, 0.0, 100.0) == NODES


def test_truncate_splits_the_cut_nodes_off():
    """Truncating part of a job's nodes shortens only their interval."""
    g = Gantt(NODES)
    g.reserve(g.mask_for(["n0", "n1", "n2"]), 10.0, 50.0, 1)
    g.truncate(g.mask_for(["n1"]), 1, 20.0)
    assert sorted(g._ledger[1]) == [(10.0, 20.0, g.mask_for(["n1"])),
                                    (10.0, 50.0, g.mask_for(["n0", "n2"]))]
    assert _steps(g) == _ledger_steps(g)


def test_purge_before_collapses_past_steps_and_forgets_ended_intervals():
    g = Gantt(NODES)
    g.reserve(g.mask_for(["n0"]), 0.0, 10.0, 1)
    g.reserve(g.mask_for(["n1"]), 5.0, 20.0, 2)
    g.reserve(g.mask_for(["n2"]), 15.0, 30.0, 3)
    g.reserve(g.mask_for(["n3"]), 40.0, 50.0, 4)
    g.purge_before(20.0)
    # Job 1 ended before t and is forgotten; job 2 ends exactly at t and
    # stays, like the jobs still running or yet to start.
    assert sorted(g._ledger) == [2, 3, 4]
    assert _steps(g) == _ledger_steps(g)
    before_t = [t for t in g.profile._times if t < 20.0]
    assert before_t == [float("-inf"), 5.0, 15.0]
    g.purge_before(100.0)
    assert g._ledger == {} and len(g.profile) == 1
