"""Tests for the external scheduler (availability-aware build launcher)."""

import pytest

from repro.checksuite import family_by_name
from repro.core import FrameworkBuilder
from repro.oar import WorkloadConfig
from repro.scenarios import ScenarioSpec
from repro.scheduling import PerNodeVariant, SchedulerPolicy
from repro.util import DAY, HOUR

SMALL = ("grisou", "grimoire", "graoully")


def make_world(seed=13, families=("oarstate", "refapi"), policy=None, **kwargs):
    return FrameworkBuilder(ScenarioSpec(
        name="launcher-test",
        seed=seed,
        clusters=SMALL,
        families=tuple(families),
        policy=policy or SchedulerPolicy(),
        workload=WorkloadConfig(target_utilization=0.2),
        fault_mean_interarrival_s=DAY,
        **kwargs,
    )).build()


def test_cells_cover_all_configurations():
    fw = make_world()
    # oarstate: 1 site (nancy), refapi: 3 clusters
    assert len(fw.scheduler.cells) == 1 + 3


def test_scheduler_launches_builds():
    fw = make_world()
    fw.start(workload=False, faults=False)
    fw.run_until(6 * HOUR)
    assert len(fw.history.records) >= 4
    assert all(r.status == "SUCCESS" for r in fw.history.records)


def test_stop_interrupts_tick_sleep_promptly():
    fw = make_world()
    fw.scheduler.start()
    fw.sim.run(until=10 * 60.0)
    proc = fw.scheduler._proc
    assert proc is not None and proc.alive
    fw.scheduler.stop()
    fw.sim.run(until=fw.sim.now)  # only the zero-delay interrupt runs
    assert not proc.alive
    # restartable after a prompt stop
    fw.scheduler.start()
    assert fw.scheduler._proc is not None and fw.scheduler._proc.alive


def test_cadence_respected():
    fw = make_world(families=("oarstate",),
                    policy=SchedulerPolicy(software_period_s=DAY))
    fw.start(workload=False, faults=False)
    fw.run_until(5 * DAY)
    runs = fw.history.select(family="oarstate")
    assert 4 <= len(runs) <= 6  # ~daily


def test_site_concurrency_limit():
    fw = make_world(families=("refapi",))  # 3 cells, all nancy
    fw.start(workload=False, faults=False)
    fw.run_until(10 * 60.0)
    # with max 1 in flight per site, at most 1 build may run at once:
    # builds must not overlap in time
    job = fw.jenkins.job("test_refapi")
    spans = sorted((b.started_at, b.finished_at) for b in job.builds if b.finished)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_resources_checked_before_trigger():
    fw = make_world(families=("refapi",))
    # saturate grisou so its refapi cell cannot get a node
    n = fw.testbed.cluster("grisou").node_count
    fw.oar.submit(f"cluster='grisou'/nodes={n},walltime=12", auto_duration=None)
    fw.sim.run(until=1.0)
    fw.start(workload=False, faults=False)
    fw.run_until(4 * HOUR)
    grisou_cell = next(c for c in fw.scheduler.cells
                       if c.config.get("cluster") == "grisou")
    assert grisou_cell.runs == 0
    assert grisou_cell.blocked_attempts >= 1
    assert grisou_cell.backoff.attempts >= 1
    # the other clusters ran fine
    other = [c for c in fw.scheduler.cells if c.config.get("cluster") != "grisou"]
    assert all(c.runs >= 1 for c in other)


def test_without_resource_check_builds_go_unstable():
    """Slide 17: builds whose testbed job cannot start are UNSTABLE."""
    fw = make_world(families=("refapi",),
                    policy=SchedulerPolicy(check_resources_first=False,
                                           max_concurrent_per_site=4))
    n = fw.testbed.cluster("grisou").node_count
    fw.oar.submit(f"cluster='grisou'/nodes={n},walltime=12", auto_duration=None)
    fw.sim.run(until=1.0)
    fw.start(workload=False, faults=False)
    fw.run_until(2 * HOUR)
    unstable = [r for r in fw.history.records
                if r.status == "UNSTABLE" and "grisou" in r.config_key]
    assert unstable  # wasted a Jenkins worker, marked unstable


def test_backoff_after_unstable():
    fw = make_world(families=("refapi",),
                    policy=SchedulerPolicy(check_resources_first=False,
                                           max_concurrent_per_site=4))
    n = fw.testbed.cluster("grisou").node_count
    fw.oar.submit(f"cluster='grisou'/nodes={n},walltime=48", auto_duration=None)
    fw.sim.run(until=1.0)
    fw.start(workload=False, faults=False)
    fw.run_until(DAY)
    grisou_cell = next(c for c in fw.scheduler.cells
                       if c.config.get("cluster") == "grisou")
    # exponential backoff: far fewer runs than the 5-minute tick would allow
    assert grisou_cell.runs <= 6
    assert grisou_cell.backoff.attempts >= 2


def test_hardware_family_waits_for_offpeak():
    fw = make_world(families=("multireboot",))
    fw.start(workload=False, faults=False)
    # campaign starts Wednesday 00:00 (off-peak): builds run immediately;
    # during peak hours (9-19) no hardware build may *start*
    fw.run_until(DAY)
    job = fw.jenkins.job("test_multireboot")
    for build in job.builds:
        if build.started_at is None:
            continue
        hour = (build.queued_at % DAY) / HOUR
        assert not (9.0 <= hour < 19.0), f"hardware build queued at {hour:.1f}h"


def test_failure_keeps_regular_cadence():
    fw = make_world(families=("oarstate",),
                    policy=SchedulerPolicy(software_period_s=6 * HOUR))
    # oarstate will FAIL (suspected node); the janitor's reboots never
    # succeed, so the node stays Suspected for the whole day
    fw.machines["grisou-1"].boot_failure_prob = 1.0
    fw.machines["grisou-1"].crash()
    fw.start(workload=False, faults=False)
    fw.run_until(DAY)
    records = fw.history.select(family="oarstate")
    assert len(records) >= 3  # failures re-run on the normal cadence
    assert all(r.status == "FAILURE" for r in records)


def test_stats_shape():
    fw = make_world()
    fw.start(workload=False, faults=False)
    fw.run_until(HOUR)
    stats = fw.scheduler.stats()
    assert stats["cells"] == 4
    assert stats["total_runs"] >= 1


def test_pernode_variant_replaces_hardware_families():
    fw = make_world(families=("multireboot",), pernode=True)
    names = {c.family.name for c in fw.scheduler.cells}
    assert names == {"multireboot-pernode"}
    assert all(c.family.nodes_needed == 1 for c in fw.scheduler.cells)


def test_pernode_variant_rotates_nodes():
    fw = make_world(families=("multireboot",), pernode=True,
                    policy=SchedulerPolicy(software_period_s=HOUR))
    fw.start(workload=False, faults=False)
    fw.run_until(2 * DAY)
    outcomes = [o for o in fw.outcomes if o.family == "multireboot-pernode"
                and o.config.get("cluster") == "grimoire"]
    nodes = [o.config["node"] for o in outcomes if "node" in o.config]
    assert len(set(nodes)) > 1  # rotation across the cluster


def test_pernode_requires_hardware_family():
    with pytest.raises(ValueError):
        PerNodeVariant(family_by_name("refapi"))
