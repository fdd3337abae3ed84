"""Full replanning passes leave every scheduled job at its earliest start.

A full pass tears down every not-yet-started reservation and re-places
the queue in FCFS order, so afterwards no scheduled job can start earlier
than its reservation.  Incremental passes (between full ones, re-placing
only jobs whose matching set contains a freed node) are deliberately not
asserted: on a 500-node, 3000-job contended trace they left non-tight
plans after 50 of 754 passes.  The next full pass repairs them.
"""

from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import OarDatabase, OarServer
from repro.testbed import ClusterSpec, ReferenceApi, build_grid5000
from repro.util import RngStreams, Simulator

from oar_reference import assert_plans_tight

_CLUSTERS = 4
_NODES_PER_CLUSTER = 25
_JOBS = 400


def _park():
    specs = [ClusterSpec(
        site="nancy", name=f"tc{i}", nodes=_NODES_PER_CLUSTER,
        cpu_model="Intel Xeon E5-2630 v3", cpu_count=2, ram_gb=128,
        vendor="dell", chassis="Dell R630", vintage=2016,
        nic_models=("Intel X710 10-Gigabit",),
        disk_models=("PERC H330 600GB SAS",), boot_time_s=150.0,
    ) for i in range(_CLUSTERS)]
    return build_grid5000(specs)


def _contended_trace():
    """70 % narrow cluster-scoped jobs, 30 % wide park-spanning ones,
    arriving at ~95 % of park capacity so a queue forms."""
    rng = RngStreams(seed=1702).stream("tight-trace")
    nodes = _CLUSTERS * _NODES_PER_CLUSTER
    kind = rng.random(_JOBS)
    cluster = rng.integers(0, _CLUSTERS, _JOBS)
    narrow = rng.integers(1, 9, _JOBS)
    wide = rng.integers(8, 41, _JOBS)
    duration = rng.uniform(600.0, 7200.0, _JOBS)
    mean_width = 0.7 * 4.5 + 0.3 * 24.0
    gaps = rng.exponential(mean_width * 3900.0 / (0.95 * nodes), _JOBS)
    trace = []
    for j in range(_JOBS):
        dur = float(duration[j])
        wall_h = int(dur * 1.3 / 3600.0) + 2
        if kind[j] < 0.7:
            req = f"cluster='tc{cluster[j]}'/nodes={narrow[j]},walltime={wall_h}"
        else:
            req = f"nodes={wide[j]},walltime={wall_h}"
        trace.append((float(gaps[j]), req, dur))
    return trace


def test_full_replan_passes_leave_plans_tight():
    testbed = _park()
    sim = Simulator()
    park = MachinePark.from_testbed(sim, testbed, RngStreams(seed=9))
    oar = OarServer(sim, OarDatabase(ReferenceApi(testbed), ServiceHealth()),
                    park)
    replan = oar._replan_future_jobs
    checked = []

    def replan_then_check(touching=None):
        replan(touching)
        if touching is None:
            assert_plans_tight(oar)
            checked.append(len(oar._scheduled))

    oar._replan_future_jobs = replan_then_check

    def submitter():
        for gap, req, dur in _contended_trace():
            yield sim.timeout(gap)
            oar.submit(req, auto_duration=dur)

    sim.process(submitter(), name="tight-submitter")
    sim.run()
    assert len(checked) > 20
    # The property is only worth checking on a real queue.
    assert max(checked) > 10
    assert all(j.finished_at is not None for j in oar.jobs.values())
