"""Tests for the OAR server: FCFS + backfilling, ALL-nodes, immediate jobs."""

import numpy as np
import pytest

from repro.faults import ServiceHealth
from repro.faults.catalog import FaultContext, FaultKind, apply_fault, revert_fault
from repro.nodes import MachinePark
from repro.oar import JobState, OarDatabase, OarServer, parse_expression
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import HOUR, RngStreams, Simulator


@pytest.fixture()
def world():
    """Small three-cluster testbed (nancy subset: 72 nodes) for speed."""
    specs = [s for s in CLUSTER_SPECS if s.name in ("grisou", "grimoire", "graoully")]
    testbed = build_grid5000(specs)
    sim = Simulator()
    park = MachinePark.from_testbed(sim, testbed, RngStreams(seed=5))
    db = OarDatabase(ReferenceApi(testbed), ServiceHealth())
    oar = OarServer(sim, db, park)
    return sim, oar, park, testbed


def test_job_starts_immediately_on_idle_testbed(world):
    sim, oar, _, _ = world
    job = oar.submit("cluster='grisou'/nodes=2,walltime=1", auto_duration=600.0)
    sim.run(until=1.0)
    assert job.state == JobState.RUNNING
    assert job.started_at == 0.0
    assert len(job.assigned_nodes) == 2
    assert all(u.startswith("grisou-") for u in job.assigned_nodes)


def test_job_terminates_after_duration(world):
    sim, oar, _, _ = world
    job = oar.submit("nodes=1,walltime=2", auto_duration=1800.0)
    sim.run(until=HOUR)
    assert job.state == JobState.TERMINATED
    assert job.finished_at == 1800.0
    assert not job.killed_by_walltime


def test_walltime_kill_for_held_job(world):
    sim, oar, _, _ = world
    job = oar.submit("nodes=1,walltime=1")  # no auto_duration: held
    sim.run(until=2 * HOUR)
    assert job.state == JobState.ERROR
    assert job.killed_by_walltime
    assert job.run_time_s == HOUR


def test_release_ends_held_job(world):
    sim, oar, _, _ = world
    job = oar.submit("nodes=1,walltime=2")

    def driver():
        yield job.started_event
        yield sim.timeout(500.0)
        oar.release(job)

    sim.process(driver())
    sim.run()
    assert job.state == JobState.TERMINATED
    assert job.run_time_s == 500.0


def test_fcfs_queueing_when_cluster_full(world):
    sim, oar, _, testbed = world
    n = testbed.cluster("grimoire").node_count
    first = oar.submit(f"cluster='grimoire'/nodes={n},walltime=2", auto_duration=2 * HOUR)
    second = oar.submit("cluster='grimoire'/nodes=1,walltime=1", auto_duration=600.0)
    sim.run(until=1.0)
    assert first.state == JobState.RUNNING
    assert second.state == JobState.SCHEDULED
    assert second.scheduled_start == pytest.approx(2 * HOUR)
    sim.run(until=3 * HOUR)
    assert second.state == JobState.TERMINATED
    assert second.wait_time_s == pytest.approx(2 * HOUR)


def test_backfilling_small_job_slips_ahead(world):
    sim, oar, _, testbed = world
    n = testbed.cluster("grisou").node_count
    # half the cluster busy for 1h
    oar.submit(f"cluster='grisou'/nodes={n // 2},walltime=1", auto_duration=HOUR)
    # wide job needs the whole cluster -> reserved at t=1h
    wide = oar.submit(f"cluster='grisou'/nodes={n},walltime=1", auto_duration=HOUR)
    # small short job fits in the remaining half right now without delaying wide
    small = oar.submit("cluster='grisou'/nodes=2,walltime=0:30", auto_duration=900.0)
    sim.run(until=10.0)
    assert small.state == JobState.RUNNING  # backfilled
    assert wide.state == JobState.SCHEDULED
    assert wide.scheduled_start == pytest.approx(HOUR)
    sim.run(until=3 * HOUR)
    assert wide.state == JobState.TERMINATED
    assert wide.wait_time_s == pytest.approx(HOUR)


def test_requeue_after_node_death_preserves_fcfs_order(world):
    """A job whose reserved node dies re-enters the queue at its job-id
    rank, not behind later-submitted waiters (conservative backfilling's
    FCFS fairness)."""
    sim, oar, park, testbed = world
    n_grim = testbed.cluster("grimoire").node_count
    n_grao = testbed.cluster("graoully").node_count
    # One graoully node is down, so whole-graoully requests wait forever.
    park[f"graoully-{n_grao}"].crash()
    blocker = oar.submit(f"cluster='grimoire'/nodes={n_grim},walltime=10",
                         auto_duration=10 * HOUR)                      # id 1
    victim = oar.submit(f"cluster='grimoire'/nodes={n_grim},walltime=1",
                        auto_duration=HOUR)                            # id 2
    waiter_a = oar.submit(f"cluster='graoully'/nodes={n_grao},walltime=1")  # id 3
    waiter_b = oar.submit(f"cluster='graoully'/nodes={n_grao},walltime=1")  # id 4
    sim.run(until=1.0)
    assert blocker.state == JobState.RUNNING
    assert victim.state == JobState.SCHEDULED
    assert [j.job_id for j in oar._waiting] == [3, 4]
    # One of the victim's reserved nodes dies an hour before its start.
    sim.call_at(9 * HOUR, park[victim.assigned_nodes[0]].crash)
    sim.run(until=10 * HOUR + 60.0)
    # The victim is back to WAITING (7 alive nodes < the 8 it needs) and
    # slotted *ahead* of the later-submitted waiters, not appended.
    assert victim.state == JobState.WAITING
    assert [j.job_id for j in oar._waiting] == [2, 3, 4]
    assert waiter_a.state == JobState.WAITING
    assert waiter_b.state == JobState.WAITING


def test_nodes_all_takes_whole_cluster(world):
    sim, oar, _, testbed = world
    job = oar.submit("cluster='graoully'/nodes=ALL,walltime=1", auto_duration=600.0)
    sim.run(until=1.0)
    assert job.state == JobState.RUNNING
    assert len(job.assigned_nodes) == testbed.cluster("graoully").node_count


def test_nodes_all_waits_for_last_node(world):
    sim, oar, _, _ = world
    blocker = oar.submit("cluster='graoully'/nodes=1,walltime=5", auto_duration=5 * HOUR)
    whole = oar.submit("cluster='graoully'/nodes=ALL,walltime=1", auto_duration=600.0)
    sim.run(until=1.0)
    assert blocker.state == JobState.RUNNING
    assert whole.state == JobState.SCHEDULED
    assert whole.scheduled_start == pytest.approx(5 * HOUR)


def test_immediate_job_on_idle_cluster_runs(world):
    sim, oar, _, _ = world
    job = oar.submit("cluster='grisou'/nodes=4,walltime=1", immediate=True,
                     auto_duration=600.0)
    sim.run(until=1.0)
    assert job.state == JobState.RUNNING


def test_immediate_job_on_busy_cluster_cancelled(world):
    sim, oar, _, testbed = world
    n = testbed.cluster("grimoire").node_count
    oar.submit(f"cluster='grimoire'/nodes={n},walltime=5", auto_duration=5 * HOUR)
    sim.run(until=1.0)
    job = oar.submit("cluster='grimoire'/nodes=1,walltime=1", immediate=True)
    assert job.state == JobState.CANCELLED
    assert job.done_event.triggered


def test_multipart_request_starts_simultaneously(world):
    sim, oar, _, _ = world
    job = oar.submit(
        "cluster='grisou'/nodes=2+cluster='graoully'/nodes=3,walltime=1",
        auto_duration=600.0,
    )
    sim.run(until=1.0)
    assert job.state == JobState.RUNNING
    part1, part2 = job.assignment
    assert len(part1) == 2 and all(u.startswith("grisou-") for u in part1)
    assert len(part2) == 3 and all(u.startswith("graoully-") for u in part2)


def test_no_matching_resources_waits_forever(world):
    sim, oar, _, _ = world
    job = oar.submit("cluster='nonexistent'/nodes=1,walltime=1")
    sim.run(until=HOUR)
    assert job.state == JobState.WAITING


def test_crashed_node_excluded_from_scheduling(world):
    sim, oar, park, testbed = world
    park["graoully-1"].crash()
    assert oar.node_state("graoully-1") == "Suspected"
    n = testbed.cluster("graoully").node_count
    job = oar.submit(f"cluster='graoully'/nodes={n},walltime=1", auto_duration=60.0)
    sim.run(until=1.0)
    assert job.state == JobState.WAITING  # n nodes requested, only n-1 alive


def test_nodes_all_adapts_to_alive_set(world):
    sim, oar, park, testbed = world
    park["graoully-1"].crash()
    job = oar.submit("cluster='graoully'/nodes=ALL,walltime=1", auto_duration=60.0)
    sim.run(until=1.0)
    assert job.state == JobState.RUNNING
    assert len(job.assigned_nodes) == testbed.cluster("graoully").node_count - 1
    assert "graoully-1" not in job.assigned_nodes


def test_node_crash_before_start_requeues_job(world):
    sim, oar, park, testbed = world
    n = testbed.cluster("grimoire").node_count
    oar.submit(f"cluster='grimoire'/nodes={n},walltime=1", auto_duration=HOUR)
    queued = oar.submit(f"cluster='grimoire'/nodes={n},walltime=1", auto_duration=60.0)
    sim.run(until=1.0)
    assert queued.state == JobState.SCHEDULED
    victim = queued.assigned_nodes[0]
    sim.call_in(30 * 60, park[victim].crash)
    sim.run(until=HOUR + 10)
    # reservation was invalidated; job went back to waiting (n > alive)
    assert queued.state == JobState.WAITING


def test_early_release_pulls_forward(world):
    sim, oar, _, testbed = world
    n = testbed.cluster("graoully").node_count
    long_job = oar.submit(f"cluster='graoully'/nodes={n},walltime=10")
    follower = oar.submit(f"cluster='graoully'/nodes={n},walltime=1", auto_duration=60.0)
    sim.run(until=1.0)
    assert follower.scheduled_start == pytest.approx(10 * HOUR)

    sim.call_at(HOUR, lambda: oar.release(long_job))  # finish 9h early
    sim.run(until=2 * HOUR)
    assert follower.state == JobState.TERMINATED
    # pulled forward at the next (batched) replanning pass
    assert follower.started_at == pytest.approx(HOUR + oar.replan_batch_s)


def test_utilization_metric(world):
    sim, oar, _, testbed = world
    assert oar.utilization() == 0.0
    total = testbed.node_count
    job = oar.submit(f"nodes={total // 2},walltime=1", auto_duration=HOUR)
    sim.run(until=1.0)
    assert oar.utilization() == pytest.approx((total // 2) / total)
    _ = job


def test_allocated_nodes_report_load(world):
    sim, oar, park, _ = world
    job = oar.submit("cluster='grisou'/nodes=1,walltime=1", auto_duration=1800.0)
    sim.run(until=1.0)
    uid = job.assigned_nodes[0]
    assert park[uid].cpu_load > 0.5
    sim.run(until=HOUR)
    assert park[uid].cpu_load < 0.1


def test_no_double_allocation_under_load(world):
    sim, oar, _, _ = world
    jobs = []
    for i in range(40):
        sim.call_in(i * 60.0, lambda i=i: jobs.append(
            oar.submit("cluster='grisou'/nodes=8,walltime=1",
                       auto_duration=1200.0 + 60 * i)))
    sim.run(until=6 * HOUR)
    # reconstruct intervals: no node may host two overlapping jobs
    intervals: dict[str, list[tuple[float, float]]] = {}
    for job in jobs:
        if job.started_at is None:
            continue
        for uid in job.assigned_nodes:
            intervals.setdefault(uid, []).append((job.started_at, job.finished_at or 1e18))
    for uid, spans in intervals.items():
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2, f"overlap on {uid}"


def test_housekeeping_purges_gantt(world):
    sim, oar, _, _ = world
    for _ in range(5):
        oar.submit("nodes=1,walltime=0:10", auto_duration=300.0)
    sim.run(until=HOUR)
    oar.housekeeping(keep_horizon_s=60.0)
    # Every job ended long before the horizon: the ledger forgets them
    # and the profile collapses to its single all-free step.
    assert oar.gantt._ledger == {}
    assert len(oar.gantt.profile) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matching_cache_follows_property_drift(world, seed):
    """A drift fault (and its fix) changes which OAR rows match; the
    server's cached matches must follow, before and after a placement."""
    sim, oar, park, _ = world
    db = oar.db
    props = ("memnode", "disktype", "eth10g")
    exprs = {f"{p}={db.properties(u)[p]!r}"
             for u in db.node_uids() for p in props}
    for expr in exprs:  # warm the cache before anything drifts
        oar.matching_mask(parse_expression(expr))
    clean = {u: db.properties(u) for u in db.node_uids()}
    ctx = FaultContext.build(park, db.services, ())
    fault = apply_fault(FaultKind.OAR_PROPERTY_DRIFT, ctx,
                        np.random.default_rng(seed), fault_id=1, now=0.0)
    prop, node = fault.details["property"], fault.details["nodes"][0]
    expr = f"{prop}={clean[node][prop]!r}"
    want = db.matching(parse_expression(expr))
    assert node not in want
    assert oar.gantt.uids_from_mask(
        oar.matching_mask(parse_expression(expr))) == want
    job = oar.submit(f"{expr}/nodes=ALL,walltime=1", auto_duration=60.0)
    assert list(job.assigned_nodes) == want
    sim.run(until=HOUR)
    revert_fault(fault, ctx)
    assert oar.gantt.uids_from_mask(
        oar.matching_mask(parse_expression(expr))) == \
        db.matching(parse_expression(expr))
    assert node in db.matching(parse_expression(expr))
