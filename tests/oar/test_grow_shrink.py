"""Tests for the grow/shrink protocol on malleable jobs.

Covers the mechanism layer (``OarServer.grow``/``shrink``/
``evict_dead_nodes``/``grow_candidates``): width bounds, the mass model
moving finish timers, generation guards against racing walltime kills,
node death inside a grown allocation, and Gantt truncation on early
release.
"""

import pytest

from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import JobState, OarDatabase, OarServer
from repro.oar.server import SchedulingError, _lowest_bits as _first
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import HOUR, RngStreams, Simulator


@pytest.fixture()
def world():
    """Small three-cluster testbed (nancy subset: 72 nodes) for speed."""
    specs = [s for s in CLUSTER_SPECS
             if s.name in ("grisou", "grimoire", "graoully")]
    testbed = build_grid5000(specs)
    sim = Simulator()
    park = MachinePark.from_testbed(sim, testbed, RngStreams(seed=5))
    db = OarDatabase(ReferenceApi(testbed), ServiceHealth())
    oar = OarServer(sim, db, park)
    return sim, oar, park, testbed


def _start_malleable(sim, oar, lo=2, pref=2, hi=6, walltime="4",
                     auto_duration=2 * HOUR):
    job = oar.submit(f"cluster='grisou'/nodes={lo}..{pref}..{hi},"
                     f"walltime={walltime}", auto_duration=auto_duration)
    sim.run(until=1.0)
    assert job.state == JobState.RUNNING
    return job


def test_malleable_job_places_at_preferred_width(world):
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=1, pref=3, hi=8)
    assert job.width == 3
    assert job.min_nodes == 1 and job.max_nodes == 8
    assert job.malleable


def test_grow_pulls_finish_in_under_linear_speedup(world):
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=2, pref=2, hi=6,
                           auto_duration=2 * HOUR)
    # At t=1h, half the work (2h * 2 nodes = 4 node-hours) is done.
    sim.run(until=HOUR)
    oar.grow(job, _first(oar.grow_candidates(job), 2))
    assert job.width == 4
    assert job.grow_count == 1
    sim.run()
    # Remaining 2 node-hours over 4 nodes: finish at 1h + 0.5h.
    assert job.state == JobState.TERMINATED
    assert not job.killed_by_walltime
    assert job.finished_at == pytest.approx(1.5 * HOUR)


def test_shrink_pushes_finish_out_and_frees_nodes(world):
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=1, pref=4, hi=4, walltime="8",
                           auto_duration=2 * HOUR)
    sim.run(until=HOUR)
    freed = oar.shrink(job, 2)
    assert freed.bit_count() == 2 and job.width == 2
    assert job.shrink_count == 1
    sim.run()
    # 4 remaining node-hours over 2 nodes: finish at 1h + 2h.
    assert job.state == JobState.TERMINATED
    assert job.finished_at == pytest.approx(3 * HOUR)


def test_shrink_below_min_nodes_is_rejected(world):
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=2, pref=3, hi=6)
    with pytest.raises(SchedulingError, match="min_nodes"):
        oar.shrink(job, 2)  # 3 - 2 = 1 < min_nodes=2
    assert job.width == 3  # untouched


def test_grow_beyond_max_nodes_is_rejected(world):
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=2, pref=2, hi=3)
    candidates = oar.grow_candidates(job)
    with pytest.raises(SchedulingError, match="max_nodes"):
        oar.grow(job, _first(candidates, 2))
    assert job.width == 2


def test_rigid_job_refuses_resize(world):
    sim, oar, _, _ = world
    job = oar.submit("cluster='grisou'/nodes=2,walltime=2",
                     auto_duration=HOUR)
    sim.run(until=1.0)
    assert not job.malleable
    with pytest.raises(SchedulingError, match="min_nodes"):
        oar.shrink(job, 1)  # min_nodes == width for rigid jobs


def test_grow_races_pending_walltime_kill(world):
    """A grow must invalidate the already-queued end-of-walltime event:
    the generation bump makes the stale timer a no-op, and the widened
    job finishes inside the walltime it was headed to bust."""
    sim, oar, _, _ = world
    # walltime 2h, work 2.5h * 2 nodes: on its own, killed at 2h with
    # 1 node-hour outstanding.
    job = _start_malleable(sim, oar, lo=2, pref=2, hi=6, walltime="2",
                           auto_duration=2.5 * HOUR)
    kill_generation = job.generation
    # At 1h, double the width: remaining 3 node-hours over 4 nodes ->
    # done at 1.75h, before the 2h deadline the old timer targets.
    sim.run(until=HOUR)
    oar.grow(job, _first(oar.grow_candidates(job), 2))
    assert job.generation > kill_generation
    sim.run()
    assert job.state == JobState.TERMINATED
    assert not job.killed_by_walltime
    assert job.finished_at == pytest.approx(1.75 * HOUR)


def test_shrink_outlives_stale_finish_timer(world):
    """After a shrink pushes the finish *out*, the original finish timer
    (still queued at the earlier time) must be a generation-guarded
    no-op — firing it would end the job with work outstanding."""
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=1, pref=4, hi=4, walltime="8",
                           auto_duration=HOUR)  # original finish at 1h
    sim.run(until=0.5 * HOUR)
    oar.shrink(job, 3)  # 2 node-hours left on 1 node: finish at 2.5h
    sim.run(until=HOUR + 60.0)  # past the stale timer
    assert job.state == JobState.RUNNING
    sim.run()
    assert job.state == JobState.TERMINATED
    assert not job.killed_by_walltime
    assert job.finished_at == pytest.approx(2.5 * HOUR)


def test_walltime_kill_still_fires_when_mass_outstanding(world):
    sim, oar, _, _ = world
    # Way too much work even after growing: must still be killed at 2h.
    job = _start_malleable(sim, oar, lo=2, pref=2, hi=4, walltime="2",
                           auto_duration=40 * HOUR)
    sim.run(until=HOUR)
    oar.grow(job, _first(oar.grow_candidates(job), 2))
    sim.run()
    assert job.killed_by_walltime
    assert job.finished_at == pytest.approx(2 * HOUR)


def test_node_death_in_grown_allocation_shrinks_past_it(world):
    sim, oar, park, _ = world
    job = _start_malleable(sim, oar, lo=2, pref=2, hi=6,
                           auto_duration=2 * HOUR)
    sim.run(until=HOUR)
    grown = oar.gantt.uids_from_mask(oar.grow_candidates(job), 2)
    oar.grow(job, oar.gantt.mask_for(grown))
    park[grown[0]].crash()
    assert oar.evict_dead_nodes(job)
    assert job.state == JobState.RUNNING
    assert grown[0] not in job.assigned_nodes
    assert job.width == 3
    sim.run()
    assert job.state == JobState.TERMINATED
    assert not job.killed_by_walltime


def test_node_death_below_min_requeues_at_fcfs_rank(world):
    """When deaths push a malleable job below min_nodes it is torn down
    and re-queued at its job-id rank, ahead of later-submitted waiters."""
    sim, oar, park, testbed = world
    n = testbed.cluster("graoully").node_count
    # One node down up front: whole-graoully waiters can never be placed.
    park[f"graoully-{n}"].crash()
    victim = oar.submit(
        f"cluster='graoully'/nodes=4..{n - 1}..{n - 1},walltime=8",
        auto_duration=6 * HOUR)                                         # id 1
    sim.run(until=1.0)
    assert victim.state == JobState.RUNNING and victim.malleable
    waiter_a = oar.submit(f"cluster='graoully'/nodes={n},walltime=1")   # id 2
    waiter_b = oar.submit(f"cluster='graoully'/nodes={n},walltime=1")   # id 3
    sim.run(until=HOUR)
    assert [j.job_id for j in oar._waiting] == [2, 3]
    # Kill the victim's whole allocation: below min_nodes=4, torn down.
    for uid in list(victim.assigned_nodes):
        park[uid].crash()
    assert oar.evict_dead_nodes(victim)
    assert victim.state == JobState.WAITING
    assert victim.started_at is None and victim.assignment == ()
    # Slotted *ahead* of the later-submitted waiters, not appended.
    assert [j.job_id for j in oar._waiting] == [1, 2, 3]
    assert waiter_a.state == JobState.WAITING
    assert waiter_b.state == JobState.WAITING


def test_shrink_truncates_reservation_so_node_is_reusable_now(world):
    """Early release must truncate the freed node's Gantt entry at now —
    the node is immediately placeable for another job, while the kept
    nodes stay reserved through the original deadline."""
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=1, pref=3, hi=3, walltime="4",
                           auto_duration=3 * HOUR)
    deadline = job.started_at + job.walltime_s
    sim.run(until=HOUR)
    now = sim.now
    freed = oar.shrink(job, 1)
    assert freed.bit_count() == 1
    gantt = oar.gantt
    assert gantt.profile_free_mask(freed, now, deadline) == freed
    assert gantt.profile_free_mask(gantt.mask_for(job.assigned_nodes), now,
                                   now + 1.0) == 0
    # A new rigid job lands on the freed node right away.
    filler = oar.submit("cluster='grisou'/nodes=1,walltime=1",
                        auto_duration=600.0)
    sim.run(until=now + 1.0)
    assert filler.state == JobState.RUNNING
    assert filler.started_at == pytest.approx(now)


def test_grow_candidates_exclude_future_reservations(world):
    """Nodes idle right now but reserved before the grower's deadline are
    not candidates: growing must never displace a reservation."""
    sim, oar, _, testbed = world
    n = testbed.cluster("grisou").node_count
    job = _start_malleable(sim, oar, lo=2, pref=2, hi=n, walltime="4",
                           auto_duration=3 * HOUR)
    # Fill all but two grisou nodes for an hour...
    oar.submit(f"cluster='grisou'/nodes={n - 4},walltime=1",
               auto_duration=HOUR)
    # ...so this wide job reserves [1h, 2h] on n-2 nodes — including the
    # two currently-idle ones, which sit free until 1h.
    wide = oar.submit(f"cluster='grisou'/nodes={n - 2},walltime=1",
                      auto_duration=HOUR)
    sim.run(until=10.0)
    assert wide.state == JobState.SCHEDULED
    assert wide.scheduled_start == pytest.approx(HOUR, abs=2.0)
    # The two idle nodes are reserved at ~1h < the 4h deadline: excluded.
    assert oar.grow_candidates(job) == 0


def test_resize_accounting_matches_alloc_integral(world):
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=1, pref=2, hi=4,
                           auto_duration=2 * HOUR)
    sim.run(until=HOUR)
    oar.grow(job, _first(oar.grow_candidates(job), 2))  # 2 -> 4 nodes
    sim.run(until=1.25 * HOUR)
    oar.shrink(job, 3)  # 4 -> 1 node
    sim.run(until=1.5 * HOUR)
    # 2 nodes * 1h + 4 nodes * 0.25h + 1 node * 0.25h
    want = 2 * HOUR + 4 * 0.25 * HOUR + 1 * 0.25 * HOUR
    assert oar.allocated_node_seconds() == pytest.approx(want)


def test_grow_onto_own_node_is_rejected_and_changes_nothing(world):
    """A grow mask overlapping the job's own nodes raises before touching
    the width, the assignment, the Gantt or the allocation integral."""
    sim, oar, _, _ = world
    job = _start_malleable(sim, oar, lo=2, pref=2, hi=6)
    sim.run(until=HOUR)
    gantt = oar.gantt
    own = gantt.mask_for(job.assigned_nodes)
    fresh = _first(oar.grow_candidates(job), 1)

    def state():
        return (job.assignment, job.width, job.generation,
                job.mass_remaining, oar._alloc_count,
                list(gantt.profile._times), list(gantt.profile._masks),
                list(gantt._ledger[job.job_id]))

    before = state()
    for mask in (own & -own, own | fresh):
        with pytest.raises(SchedulingError, match="already allocated"):
            oar.grow(job, mask)
        assert state() == before
    assert job.grow_count == 0 and oar.grow_events == 0
