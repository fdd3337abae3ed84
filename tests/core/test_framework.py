"""Integration tests: the fully-wired framework closes the loop."""

import math

from repro.core import FrameworkBuilder
from repro.core import framework as framework_mod
from repro.faults import FaultKind
from repro.nodes import PowerState
from repro.nodes.machine import SimulatedNode
from repro.oar import WorkloadConfig
from repro.scenarios import ScenarioSpec
from repro.testbed import ReferenceApi
from repro.util import DAY, HOUR

SMALL = ("grisou", "grimoire", "graoully")


def make_world(seed=31, families=("refapi", "oarstate", "console", "dellbios"),
               **kwargs):
    return FrameworkBuilder(ScenarioSpec(
        name="framework-test",
        seed=seed,
        clusters=SMALL,
        families=tuple(families),
        workload=WorkloadConfig(target_utilization=0.25),
        fault_mean_interarrival_s=DAY,
        **kwargs,
    )).build()


def test_jobs_registered_per_family():
    fw = make_world()
    assert set(fw.jenkins.jobs) == {
        "test_refapi", "test_oarstate", "test_console", "test_dellbios",
    }


def test_detect_file_fix_loop():
    """The paper's whole point: fault -> detection -> bug -> fix."""
    fw = make_world()
    inst = fw.injector.inject(FaultKind.CONSOLE_BROKEN)
    fw.start(workload=False, faults=False)
    fw.run_until(30 * DAY)
    assert inst.detected
    assert inst.detected_by == "console"
    explained = [b for b in fw.tracker.bugs if b.fault is inst]
    assert len(explained) == 1
    assert not inst.active  # operators reverted it
    assert fw.machines[inst.target].actual.console_ok
    # after the fix, console tests pass again
    late = fw.history.select(family="console", cluster=inst.cluster,
                             since=inst.fixed_at + DAY)
    assert late and all(r.status == "SUCCESS" for r in late)


def test_success_rate_recovers_after_fix():
    fw = make_world(families=("dellbios",))
    inst = fw.injector.inject(FaultKind.BIOS_VERSION_SKEW)
    fw.start(workload=False, faults=False)
    fw.run_until(40 * DAY)
    early = fw.history.success_rate(0, 5 * DAY, family="dellbios")
    late = fw.history.success_rate(35 * DAY, 40 * DAY, family="dellbios")
    assert late >= early


def test_janitor_revives_crashed_nodes():
    fw = make_world(families=("oarstate",))
    fw.start(workload=False, faults=False, testing=False)
    fw.machines["grisou-5"].crash()
    fw.run_until(3 * HOUR)
    assert fw.machines["grisou-5"].available


def test_gremlin_crashes_faulty_machines():
    fw = make_world(families=("oarstate",))
    fw.start(workload=False, faults=False, testing=False)
    node = fw.machines["grimoire-2"]
    node.crash_mtbf_s = 2 * HOUR
    node.boot_failure_prob = 1.0  # janitor cannot revive it
    fw.run_until(DAY)
    assert not node.available


def _scanning_gremlin(self):
    """The gremlin as a full park scan in testbed order (the oracle)."""
    rng = self.rngs.stream("gremlin")
    period = framework_mod._GREMLIN_PERIOD_S
    while True:
        yield self.sim.timeout(period)
        for machine in self.machines.machines.values():
            mtbf = machine.crash_mtbf_s
            if mtbf is None or machine.state != PowerState.ON:
                continue
            if float(rng.random()) < 1.0 - math.exp(-period / mtbf):
                machine.crash()


def _gremlin_crashes(monkeypatch, gremlin=None):
    """(time, uid) of every crash over three days with MTBFs set, cleared
    and re-set out of testbed order."""
    crashes = []
    crash = SimulatedNode.crash

    def recording(node):
        crashes.append((node.sim.now, node.uid))
        crash(node)

    with monkeypatch.context() as patch:
        patch.setattr(SimulatedNode, "crash", recording)
        if gremlin is not None:
            patch.setattr(framework_mod.TestingFramework, "_gremlin", gremlin)
        fw = make_world(families=("oarstate",))
        fw.start(workload=False, faults=False, testing=False)
        for uid in ("graoully-3", "grimoire-2", "grisou-10", "grisou-2"):
            fw.machines[uid].crash_mtbf_s = 3 * HOUR
        fw.run_until(DAY)
        fw.machines["grimoire-2"].crash_mtbf_s = None
        fw.run_until(2 * DAY)
        fw.machines["grimoire-2"].crash_mtbf_s = HOUR
        fw.run_until(3 * DAY)
    return crashes


def test_gremlin_index_draws_like_a_park_scan(monkeypatch):
    indexed = _gremlin_crashes(monkeypatch)
    assert len({uid for _, uid in indexed}) >= 3
    assert indexed == _gremlin_crashes(monkeypatch, _scanning_gremlin)


def test_build_logs_carry_findings():
    fw = make_world(families=("console",))
    inst = fw.injector.inject(FaultKind.CONSOLE_BROKEN)
    fw.start(workload=False, faults=False)
    fw.run_until(DAY)
    job = fw.jenkins.job("test_console")
    failed = [b for b in job.builds
              if b.parameters.get("cluster") == inst.cluster and
              b.status is not None and b.status.value == "FAILURE"]
    assert failed
    assert any("console" in line for line in failed[0].log)


def test_refapi_archive_keeps_only_the_initial_import(monkeypatch):
    """Nothing in a run edits a description, so the run commits nothing
    to the Reference API: the archive holds the initial import alone and
    answers for any later time with it."""
    fw = make_world(families=("oarstate",))
    commits = []
    real_commit = ReferenceApi.commit

    def spy(self, timestamp, message):
        commits.append((timestamp, message))
        return real_commit(self, timestamp, message)

    monkeypatch.setattr(ReferenceApi, "commit", spy)
    fw.start(workload=False, faults=False, testing=False)
    fw.run_until(3 * DAY + HOUR)
    assert commits == []
    assert [v.message for v in fw.refapi.history] == ["initial import"]
    assert fw.refapi.at_time(2 * DAY).version == fw.refapi.head.version


def test_start_idempotent():
    fw = make_world()
    fw.start(workload=False, faults=False)
    fw.start(workload=False, faults=False)
    fw.run_until(HOUR)  # would double-trigger if start weren't guarded
    stats = fw.scheduler.stats()
    assert stats["cells"] == len(fw.scheduler.cells)


def test_outcomes_collected():
    fw = make_world(families=("oarstate",))
    fw.start(workload=False, faults=False)
    fw.run_until(DAY)
    assert fw.outcomes
    assert all(o.family == "oarstate" for o in fw.outcomes)


def test_workload_and_testing_coexist():
    fw = make_world(families=("refapi",))
    fw.start(faults=False)
    fw.run_until(2 * DAY)
    assert fw.workload.submitted > 0
    assert len(fw.history.records) > 0
