"""E7 — slides 16-17: scheduling on a heavily-used testbed.

Regenerates the motivating observation: on a contended testbed, a 1-node
job starts almost immediately while a whole-cluster (nodes=ALL) request
waits orders of magnitude longer — "waiting for all nodes of a given
cluster to be available can take weeks".  Also demonstrates the
immediate-or-cancel contract the external scheduler relies on, and guards
the replan hot path (``_replan_future_jobs``) against perf regressions.
"""

import time

from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import JobState, OarDatabase, OarServer, WorkloadConfig, WorkloadGenerator
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import DAY, HOUR, RngStreams, Simulator

from conftest import paper_row, print_table

_CLUSTERS = ("paravance", "grisou", "parasilo")


def _contended_world(seed=3, utilization=0.75):
    specs = [s for s in CLUSTER_SPECS if s.name in _CLUSTERS]
    testbed = build_grid5000(specs)
    sim = Simulator()
    rngs = RngStreams(seed=seed)
    park = MachinePark.from_testbed(sim, testbed, rngs)
    oar = OarServer(sim, OarDatabase(ReferenceApi(testbed), ServiceHealth()), park)
    workload = WorkloadGenerator(
        sim, oar, testbed, rngs,
        WorkloadConfig(target_utilization=utilization))
    workload.start()
    sim.run(until=2 * DAY)  # warm the queue up
    return sim, oar


def _scenario():
    sim, oar = _contended_world()
    single = oar.submit("cluster='paravance'/nodes=1,walltime=1",
                        auto_duration=600.0)
    whole = oar.submit("cluster='paravance'/nodes=ALL,walltime=2",
                       auto_duration=600.0)
    immediate = oar.submit("cluster='paravance'/nodes=ALL,walltime=2",
                           immediate=True)
    sim.run(until=sim.now + 21 * DAY)
    return single, whole, immediate


def bench_e7_scheduler(benchmark):
    single, whole, immediate = benchmark.pedantic(_scenario, rounds=1,
                                                  iterations=1)
    single_wait = single.wait_time_s if single.wait_time_s is not None else float("inf")
    whole_wait = whole.wait_time_s if whole.wait_time_s is not None else float("inf")
    rows = [
        paper_row("1-node job wait", "~immediate",
                  f"{single_wait / HOUR:.2f}h"),
        paper_row("whole-cluster (ALL) job wait", "days-weeks",
                  f"{whole_wait / DAY:.1f}d"),
        paper_row("immediate-or-cancel on busy cluster", "cancelled",
                  immediate.state.value),
    ]
    print_table("E7: scheduling on a heavily-used testbed (slides 16-17)", rows)
    # shape: whole-cluster requests wait far longer than single-node ones
    assert whole_wait > 4 * single_wait
    assert whole_wait > 12 * HOUR
    assert immediate.state == JobState.CANCELLED


def _deep_queue_world(jobs=800):
    """A tiny cluster with a deep queue of future reservations: the state
    every completion-triggered replanning pass operates on."""
    specs = [s for s in CLUSTER_SPECS if s.name == "grimoire"]  # 8 nodes
    testbed = build_grid5000(specs)
    sim = Simulator()
    park = MachinePark.from_testbed(sim, testbed, RngStreams(seed=1))
    oar = OarServer(sim, OarDatabase(ReferenceApi(testbed), ServiceHealth()), park)
    for _ in range(jobs):
        oar.submit("cluster='grimoire'/nodes=1,walltime=3",
                   auto_duration=3 * HOUR)
    sim.run(until=1.0)  # start the first wave, settle the reservations
    return sim, oar


def bench_e7_replan_hotpath(benchmark):
    """Perf-regression guard: a full replanning pass over a deep scheduled
    queue must stay linear-ish in queue depth (the quadratic
    ``set(replanned)``-per-job filtering this bench was added against
    would blow the budget at this scale)."""
    sim, oar = _deep_queue_world()
    depth = len(oar._scheduled)
    assert depth > 700  # 8 running, the rest stacked into the future

    def replan():
        oar._replan_future_jobs()
        return len(oar._scheduled)

    t0 = time.perf_counter()
    after = benchmark.pedantic(replan, rounds=3, iterations=1)
    elapsed = (time.perf_counter() - t0) / 3.0

    per_job_ms = 1000.0 * elapsed / depth
    rows = [
        paper_row("scheduled queue depth", "-", depth),
        paper_row("full replan wall time", "-", f"{elapsed * 1000:.0f}ms"),
        paper_row("per scheduled job", "< 5ms", f"{per_job_ms:.2f}ms"),
    ]
    print_table("E7b: replan hot path on a deep queue", rows)
    assert after == depth  # replan is placement-stable on an idle queue
    # generous ceiling (measured ~0.5ms/job): trips on a reintroduced
    # quadratic pass long before it trips on machine noise
    assert per_job_ms < 5.0
