"""Tests for the synthetic user workload generator."""

from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import OarDatabase, OarServer, WorkloadConfig, WorkloadGenerator
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import DAY, HOUR, RngStreams, Simulator


def make_world(seed=6, clusters=("grisou", "paravance"), config=WorkloadConfig()):
    specs = [s for s in CLUSTER_SPECS if s.name in clusters]
    testbed = build_grid5000(specs)
    sim = Simulator()
    rngs = RngStreams(seed=seed)
    park = MachinePark.from_testbed(sim, testbed, rngs)
    oar = OarServer(sim, OarDatabase(ReferenceApi(testbed), ServiceHealth()), park)
    gen = WorkloadGenerator(sim, oar, testbed, rngs, config)
    return sim, oar, gen, testbed


def test_submit_one_produces_valid_job():
    sim, oar, gen, testbed = make_world()
    job = gen.submit_one()
    assert job.job_id in oar.jobs
    cluster = job.request.expr
    assert cluster is not None
    assert 0.25 * HOUR <= job.request.walltime_s <= 24 * HOUR
    assert job.auto_duration <= job.request.walltime_s


def test_job_size_never_exceeds_cluster():
    sim, oar, gen, testbed = make_world(clusters=("grimoire",))  # 8 nodes
    for _ in range(50):
        job = gen.submit_one()
        assert job.request.count <= 8


def test_generator_sustains_target_utilization():
    sim, oar, gen, _ = make_world(config=WorkloadConfig(target_utilization=0.6))
    gen.start()
    sim.run(until=3 * DAY)
    # sample utilization across the last day
    samples = []

    def sampler():
        while sim.now < 4 * DAY:
            samples.append(oar.utilization())
            yield sim.timeout(HOUR)

    sim.process(sampler())
    sim.run(until=4 * DAY)
    mean_util = sum(samples) / len(samples)
    assert 0.3 < mean_util < 0.95  # loaded, but not wedged


def test_rate_modulation_peak_vs_weekend():
    sim, oar, gen, _ = make_world()
    weekday_peak = gen.rate_factor(12 * HOUR)  # Wed noon
    weekday_night = gen.rate_factor(2 * HOUR)
    weekend = gen.rate_factor(3 * DAY + 12 * HOUR)  # Sat noon
    assert weekday_peak > weekday_night > weekend


def test_workload_reproducible():
    def trace(seed):
        sim, oar, gen, _ = make_world(seed=seed)
        gen.start()
        sim.run(until=12 * HOUR)
        return [(j.job_id, str(j.request), j.submitted_at) for j in oar.jobs.values()]

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


def test_stop_halts_arrivals():
    sim, oar, gen, _ = make_world()
    gen.start()
    sim.run(until=6 * HOUR)
    count = gen.submitted
    gen.stop()
    sim.run(until=2 * DAY)
    # prompt shutdown: not even one more job sneaks out of the pending draw
    assert gen.submitted == count


def test_stop_kills_the_process_immediately():
    sim, oar, gen, _ = make_world()
    gen.start()
    sim.run(until=6 * HOUR)
    proc = gen._proc
    assert proc is not None and proc.alive
    gen.stop()
    sim.run(until=sim.now)  # only the zero-delay interrupt runs
    assert not proc.alive
    gen.start()  # restartable after a prompt stop
    assert gen._proc is not None and gen._proc.alive


def test_most_small_jobs_start_quickly():
    sim, oar, gen, _ = make_world(config=WorkloadConfig(target_utilization=0.5))
    gen.start()
    sim.run(until=2 * DAY)
    waits = [j.wait_time_s for j in oar.jobs.values()
             if j.started_at is not None and len(j.assignment) == 1]
    assert waits, "no single-node jobs completed"
    quick = sum(1 for w in waits if w < 60.0)
    assert quick / len(waits) > 0.6


def test_cdf_draw_reproduces_generator_choice():
    """``submit_one``'s CDF draw gives ``Generator.choice(..., p=...)``'s
    variates and leaves the generator in the same state, so the workload
    (and every report built on it) is unchanged."""
    import numpy as np

    from repro.oar.workload import _cdf, _draw

    shapes = np.random.default_rng(2024)
    for seed in range(300):
        n = int(shapes.integers(2, 41))
        p = shapes.random(n)
        p[shapes.random(n) < 0.2] = 0.0  # some impossible outcomes
        p[int(shapes.integers(n))] += 0.01
        p /= p.sum()
        cdf = _cdf(p)
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [_draw(mine, cdf) for _ in range(200)]
        assert drawn == [int(ref.choice(n, p=p)) for _ in range(200)]
        assert mine.bit_generator.state == ref.bit_generator.state
