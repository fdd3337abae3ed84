"""A replan pays only for its search when a job lands where it was.

``_replan_future_jobs`` frees each torn-down job's Gantt intervals but
keeps its assignment, start and generation; ``_reserve`` keeps them, and
the pending start timer, when the new start and mask equal the old
ones, and arms a fresh timer (turning the old one stale) otherwise.  A
job's candidate mask is one cached int per drift epoch.  And
``ResourceProfile.earliest`` skips every candidate a blocking step
rules out.
"""

import pytest

from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import JobState, OarDatabase, OarServer, parse_expression
from repro.oar.gantt import ResourceProfile
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import HOUR, RngStreams, Simulator

from oar_reference import bisect_earliest


@pytest.fixture()
def world():
    specs = [s for s in CLUSTER_SPECS if s.name in ("grisou", "grimoire")]
    testbed = build_grid5000(specs)
    sim = Simulator()
    park = MachinePark.from_testbed(sim, testbed, RngStreams(seed=5))
    db = OarDatabase(ReferenceApi(testbed), ServiceHealth())
    return sim, OarServer(sim, db, park)


def _queued_behind_a_full_cluster(sim, oar):
    """A held whole-grisou job runs from t=0; a two-node grisou job is
    reserved at its walltime end."""
    blocker = oar.submit("cluster='grisou'/nodes=ALL,walltime=2")
    queued = oar.submit("cluster='grisou'/nodes=2,walltime=1",
                        auto_duration=600.0)
    sim.run(until=1.0)
    assert blocker.state == JobState.RUNNING
    assert queued.state == JobState.SCHEDULED
    assert queued.scheduled_start == 2 * HOUR
    return blocker, queued


def test_same_spot_replacement_keeps_assignment_and_timer(world):
    sim, oar = world
    _, queued = _queued_behind_a_full_cluster(sim, oar)
    assignment, generation = queued.assignment, queued.generation
    seq = sim._seq
    oar._replan_future_jobs()
    assert queued.state == JobState.SCHEDULED
    assert queued.scheduled_start == 2 * HOUR
    assert queued.assignment is assignment
    assert queued.generation == generation
    assert sim._seq == seq  # no kernel entry scheduled
    started = []
    oar.on_job_start.append(started.append)
    sim.run(until=3 * HOUR)
    assert started == [queued] and queued.started_at == 2 * HOUR


def test_moved_job_old_timer_is_a_no_op(world):
    sim, oar = world
    blocker, queued = _queued_behind_a_full_cluster(sim, oar)
    old = queued.generation
    oar.release(blocker)  # frees grisou at t=1
    oar._replan_future_jobs()
    assert queued.scheduled_start == 1.0
    assert queued.generation != old
    oar._try_start(queued, old)  # the timer armed for t=2h
    assert queued.state == JobState.SCHEDULED
    assert queued in oar._scheduled
    started = []
    oar.on_job_start.append(started.append)
    sim.run(until=3 * HOUR)  # through the old timer's instant
    assert started == [queued] and queued.started_at == 1.0


def test_job_left_waiting_is_cleared_and_its_timer_stale(world):
    sim, oar = world
    _, queued = _queued_behind_a_full_cluster(sim, oar)
    old = queued.generation
    grisou = oar.db.matching(parse_expression("cluster='grisou'"))
    oar.db.services.drift_oar_property(grisou, "cluster")  # matches none
    oar._replan_future_jobs()
    assert queued.state == JobState.WAITING
    assert queued.generation > old
    assert queued.assignment == () and queued.reserved_mask == 0
    assert queued.scheduled_start is None
    started = []
    oar.on_job_start.append(started.append)
    sim.run(until=3 * HOUR)
    assert started == []


def test_drift_between_replans_changes_the_cached_mask(world):
    sim, oar = world
    _, queued = _queued_behind_a_full_cluster(sim, oar)
    expr = parse_expression("cluster='grisou'")
    gantt = oar.gantt
    grisou = gantt.mask_for(oar.db.matching(expr))
    oar._replan_future_jobs()
    assert oar._job_masks[queued.job_id] == grisou
    drifted = list(queued.assignment)
    oar.db.services.drift_oar_property(drifted, "cluster")
    oar._replan_future_jobs()
    want = grisou & ~gantt.mask_for(drifted)
    assert want == gantt.mask_for(oar.db.matching(expr))
    assert oar._job_masks[queued.job_id] == want
    assert queued.scheduled_start == 2 * HOUR
    assert not set(queued.assignment) & set(drifted)


def test_finished_job_leaves_the_mask_cache(world):
    sim, oar = world
    blocker, queued = _queued_behind_a_full_cluster(sim, oar)
    oar.release(blocker)
    sim.run(until=3 * HOUR)
    assert queued.state == JobState.TERMINATED
    assert oar._job_masks == {}


class _CountingProfile(ResourceProfile):
    """Records what each window test returned."""

    def __init__(self, node_count):
        super().__init__(node_count)
        self.window_tests = []

    def _blocking_step(self, *args):
        step = super()._blocking_step(*args)
        self.window_tests.append(step)
        return step


def test_blocking_step_rules_out_every_candidate_before_it():
    """Nodes 2 and 3 toggle at t = 10 .. 29, so every candidate there
    has at least two free nodes; over [40, 50) only node 0 is free, and
    every candidate's 100 s window covers that step.  The walk tests one
    window for the whole blocked run, then one for the answer, 50."""
    profile = _CountingProfile(4)
    profile.set_busy(0b1110, 0.0, 5.0)  # ``after``: too few nodes
    for t in range(10, 30):
        profile.set_busy(0b0100 << (t % 2), float(t), t + 1.0)
    profile.set_busy(0b1110, 40.0, 50.0)
    blocked = sum(1 for t in profile._times if 5.0 <= t < 50.0)
    assert blocked > 20
    want = bisect_earliest(profile, 0b1111, 0.0, 100.0, 2)
    assert want == 50.0
    assert profile.earliest(0b1111, 0.0, 100.0, 2) == want
    tests = profile.window_tests
    assert len(tests) == 2
    assert profile._times[tests[0]] == 40.0 and tests[1] is None
