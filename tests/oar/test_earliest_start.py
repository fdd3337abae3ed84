"""Property tests for the interval-sweep earliest-start search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oar import Gantt, Reservation
from repro.util import SchedulingError

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
    g = Gantt(_NODES)
    job = 0
    for uid, start, length in raw:
        job += 1
        try:
            g.timeline(uid).add(Reservation(start, start + length, job))
        except SchedulingError:
            pass
    return g


@given(_reservations, st.floats(0, 200, allow_nan=False),
       st.floats(1, 100, allow_nan=False), st.integers(1, 4))
@settings(max_examples=150)
def test_earliest_start_is_feasible(raw, after, duration, k):
    """At the returned time, >= k nodes really are free for the duration."""
    g = _build(raw)
    start = g.earliest_start(_NODES, after, duration, k)
    assert start is not None  # k <= len(nodes), all free eventually
    assert start >= after
    free = [u for u in _NODES if g.is_free(u, start, start + duration)]
    assert len(free) >= k


@given(_reservations, st.floats(0, 200, allow_nan=False),
       st.floats(1, 100, allow_nan=False), st.integers(1, 4))
@settings(max_examples=150)
def test_earliest_start_is_minimal_among_candidates(raw, after, duration, k):
    """No release point (or `after`) earlier than the answer also works."""
    g = _build(raw)
    start = g.earliest_start(_NODES, after, duration, k)
    for candidate in g.candidate_starts(_NODES, after):
        if candidate >= start:
            break
        free = [u for u in _NODES if g.is_free(u, candidate, candidate + duration)]
        assert len(free) < k, (
            f"sweep said {start} but {candidate} already fits {k} nodes")


def test_earliest_start_empty_gantt_is_now():
    g = Gantt(_NODES)
    assert g.earliest_start(_NODES, 5.0, 10.0, 4) == 5.0


def test_earliest_start_k_too_large():
    g = Gantt(_NODES)
    assert g.earliest_start(_NODES, 0.0, 10.0, 5) is None
    assert g.earliest_start(_NODES, 0.0, 10.0, 0) is None


def test_earliest_start_waits_for_release():
    g = Gantt(_NODES)
    for uid in _NODES:
        g.timeline(uid).add(Reservation(0.0, 100.0, 1))
    assert g.earliest_start(_NODES, 0.0, 10.0, 4) == 100.0


def test_earliest_start_uses_gap_between_reservations():
    g = Gantt(_NODES)
    g.timeline("n1").add(Reservation(0.0, 10.0, 1))
    g.timeline("n1").add(Reservation(50.0, 60.0, 2))
    # a 40s job fits the [10, 50) gap on n1
    assert g.earliest_start(["n1"], 0.0, 40.0, 1) == 10.0
    # a 41s job does not: next chance is after the second reservation
    assert g.earliest_start(["n1"], 0.0, 41.0, 1) == 60.0


def test_earliest_start_rejects_bad_duration():
    g = Gantt(_NODES)
    with pytest.raises(SchedulingError):
        g.earliest_start(_NODES, 0.0, 0.0, 1)


def test_earliest_start_exact_fit_window_tie():
    """A window exactly as long as the duration hosts exactly one start:
    the +1 and -1 sweep events share a coordinate, and the +1 must be
    counted first (kind 0 sorts before kind 1) or the only feasible start
    is missed."""
    g = Gantt(["n1"])
    g.timeline("n1").add(Reservation(10.0, 20.0, 1))
    # free window [0, 10) fits a 10s job only if it starts exactly at 0
    assert g.earliest_start(["n1"], 0.0, 10.0, 1) == 0.0


def test_earliest_start_equal_coordinate_handover_tie():
    """One node's last feasible start coincides with another node's first:
    at that shared coordinate both must count simultaneously."""
    g = Gantt(["n1", "n2"])
    g.timeline("n1").add(Reservation(10.0, 20.0, 1))   # n1 hosts in [0, 5]
    g.timeline("n2").add(Reservation(0.0, 5.0, 2))     # n2 hosts from 5 on
    # duration 5, k=2: only t=5 sees both nodes free over [5, 10)
    assert g.earliest_start(["n1", "n2"], 0.0, 5.0, 2) == 5.0
    assert g.is_free("n1", 5.0, 10.0) and g.is_free("n2", 5.0, 10.0)


@given(_reservations, st.floats(0, 200, allow_nan=False),
       st.floats(1, 100, allow_nan=False))
@settings(max_examples=150)
def test_whole_cluster_fixpoint_matches_sweep(raw, after, duration):
    """k == n takes the next_fit fixpoint path; a (k == n - 1) + one-free-
    node cross-check pins it against the generic sweep."""
    g = _build(raw)
    start = g.earliest_start(_NODES, after, duration, len(_NODES))
    assert start is not None and start >= after
    assert all(g.is_free(u, start, start + duration) for u in _NODES)
    # minimality against every earlier candidate boundary
    for candidate in g.candidate_starts(_NODES, after):
        if candidate >= start:
            break
        assert not all(g.is_free(u, candidate, candidate + duration)
                       for u in _NODES)
