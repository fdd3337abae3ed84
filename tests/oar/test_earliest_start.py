"""Property tests for the profile's earliest-start search.

Feasibility and minimality are checked against the per-node reference
timelines (``oar_reference.TimelineGantt``) fed the same reservations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oar import Gantt
from repro.util import SchedulingError

from oar_reference import TimelineGantt

_NODES = ["n1", "n2", "n3", "n4"]

_reservations = st.lists(
    st.tuples(
        st.sampled_from(_NODES),
        st.floats(0, 500, allow_nan=False),
        st.floats(1, 60, allow_nan=False),
    ),
    max_size=25,
)


def _build(raw):
    """The same reservations in a Gantt and in the reference timelines."""
    g, ref = Gantt(_NODES), TimelineGantt(_NODES)
    job = 0
    for uid, start, length in raw:
        job += 1
        try:
            g.reserve(g.mask_for([uid]), start, start + length, job)
        except SchedulingError:
            continue
        ref.reserve([uid], start, start + length, job)
    return g, ref


def _earliest(g, uids, after, duration, k):
    return g.profile_earliest(g.mask_for(uids), after, duration, k)


@given(_reservations, st.floats(0, 200, allow_nan=False),
       st.floats(1, 100, allow_nan=False), st.integers(1, 4))
@settings(max_examples=150)
def test_earliest_start_is_feasible(raw, after, duration, k):
    """At the returned time, >= k nodes really are free for the duration."""
    g, ref = _build(raw)
    start = _earliest(g, _NODES, after, duration, k)
    assert start is not None  # k <= len(nodes), all free eventually
    assert start >= after
    free = ref.free_nodes(_NODES, start, start + duration)
    assert len(free) >= k


@given(_reservations, st.floats(0, 200, allow_nan=False),
       st.floats(1, 100, allow_nan=False), st.integers(1, 4))
@settings(max_examples=150)
def test_earliest_start_is_minimal_among_candidates(raw, after, duration, k):
    """No release point (or `after`) earlier than the answer also works."""
    g, ref = _build(raw)
    start = _earliest(g, _NODES, after, duration, k)
    for candidate in ref.candidate_starts(_NODES, after):
        if candidate >= start:
            break
        free = ref.free_nodes(_NODES, candidate, candidate + duration)
        assert len(free) < k, (
            f"sweep said {start} but {candidate} already fits {k} nodes")


def test_earliest_start_empty_gantt_is_now():
    g = Gantt(_NODES)
    assert _earliest(g, _NODES, 5.0, 10.0, 4) == 5.0


def test_earliest_start_k_too_large():
    g = Gantt(_NODES)
    assert _earliest(g, _NODES, 0.0, 10.0, 5) is None
    assert _earliest(g, _NODES, 0.0, 10.0, 0) is None


def test_earliest_start_waits_for_release():
    g = Gantt(_NODES)
    g.reserve(g.mask_for(_NODES), 0.0, 100.0, 1)
    assert _earliest(g, _NODES, 0.0, 10.0, 4) == 100.0


def test_earliest_start_uses_gap_between_reservations():
    g = Gantt(_NODES)
    g.reserve(g.mask_for(["n1"]), 0.0, 10.0, 1)
    g.reserve(g.mask_for(["n1"]), 50.0, 60.0, 2)
    # a 40s job fits the [10, 50) gap on n1
    assert _earliest(g, ["n1"], 0.0, 40.0, 1) == 10.0
    # a 41s job does not: next chance is after the second reservation
    assert _earliest(g, ["n1"], 0.0, 41.0, 1) == 60.0


def test_earliest_start_rejects_bad_duration():
    g = Gantt(_NODES)
    with pytest.raises(SchedulingError):
        _earliest(g, _NODES, 0.0, 0.0, 1)


def test_earliest_start_exact_fit_window_tie():
    """A window exactly as long as the duration hosts exactly one start:
    the +1 and -1 sweep events share a coordinate, and the +1 must be
    counted first (kind 0 sorts before kind 1) or the only feasible start
    is missed."""
    g = Gantt(["n1"])
    g.reserve(g.mask_for(["n1"]), 10.0, 20.0, 1)
    # free window [0, 10) fits a 10s job only if it starts exactly at 0
    assert _earliest(g, ["n1"], 0.0, 10.0, 1) == 0.0


def test_earliest_start_equal_coordinate_handover_tie():
    """One node's last feasible start coincides with another node's first:
    at that shared coordinate both must count simultaneously."""
    g = Gantt(["n1", "n2"])
    g.reserve(g.mask_for(["n1"]), 10.0, 20.0, 1)   # n1 hosts in [0, 5]
    g.reserve(g.mask_for(["n2"]), 0.0, 5.0, 2)     # n2 hosts from 5 on
    # duration 5, k=2: only t=5 sees both nodes free over [5, 10)
    assert _earliest(g, ["n1", "n2"], 0.0, 5.0, 2) == 5.0
    assert g.free_uids(g.full_mask, 5.0, 10.0) == ["n1", "n2"]


@given(_reservations, st.floats(0, 200, allow_nan=False),
       st.floats(1, 100, allow_nan=False))
@settings(max_examples=150)
def test_whole_cluster_fixpoint_matches_sweep(raw, after, duration):
    """k == n uses next-fit's window-end test; the answer is the
    reference next-fit fixpoint's, feasible and minimal."""
    g, ref = _build(raw)
    start = _earliest(g, _NODES, after, duration, len(_NODES))
    assert start == ref.whole_set_start(_NODES, after, duration)
    assert start is not None and start >= after
    assert ref.free_nodes(_NODES, start, start + duration) == _NODES
    # minimality against every earlier candidate boundary
    for candidate in ref.candidate_starts(_NODES, after):
        if candidate >= start:
            break
        assert ref.free_nodes(_NODES, candidate, candidate + duration) != _NODES
