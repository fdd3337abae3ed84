"""Tests for the Poisson fault injector and ground truth registry."""

import pytest

from repro.faults import FaultContext, FaultInjector, FaultKind, ServiceHealth
from repro.nodes import MachinePark
from repro.util import DAY, RngStreams, Simulator

IMAGES = ("debian8-std", "debian9-min")


@pytest.fixture()
def world(fresh_testbed):
    sim = Simulator()
    rngs = RngStreams(seed=11)
    park = MachinePark.from_testbed(sim, fresh_testbed, rngs)
    ctx = FaultContext.build(park, ServiceHealth(), IMAGES)
    return sim, ctx, rngs


def test_inject_specific_kind(world):
    sim, ctx, rngs = world
    injector = FaultInjector(sim, ctx, rngs)
    inst = injector.inject(FaultKind.CPU_TURBO)
    assert inst is not None
    assert inst.kind == FaultKind.CPU_TURBO
    assert injector.ground_truth.all == (inst,)


def test_inject_random_kind_uses_weights(world):
    sim, ctx, rngs = world
    injector = FaultInjector(sim, ctx, rngs)
    kinds = {injector.inject().kind for _ in range(60)}
    assert len(kinds) > 5  # variety across the catalog


def test_background_process_injects_over_time(world):
    sim, ctx, rngs = world
    injector = FaultInjector(sim, ctx, rngs, mean_interarrival_s=6 * 3600.0)
    injector.start()
    sim.run(until=30 * DAY)
    count = len(injector.ground_truth.all)
    # ~120 expected; Poisson noise bounds
    assert 70 < count < 180


def test_injection_rate_scales(world):
    sim, ctx, rngs = world
    injector = FaultInjector(sim, ctx, rngs, mean_interarrival_s=DAY)
    injector.start()
    sim.run(until=30 * DAY)
    assert 10 < len(injector.ground_truth.all) < 60


def test_stop_halts_injection(world):
    sim, ctx, rngs = world
    injector = FaultInjector(sim, ctx, rngs, mean_interarrival_s=3600.0)
    injector.start()
    sim.run(until=2 * DAY)
    count = len(injector.ground_truth.all)
    injector.stop()
    sim.run(until=10 * DAY)
    assert len(injector.ground_truth.all) <= count + 1  # at most one in-flight


def test_fix_reverts_and_timestamps(world):
    sim, ctx, rngs = world
    injector = FaultInjector(sim, ctx, rngs)
    inst = injector.inject(FaultKind.DISK_WRITE_CACHE)
    sim.run(until=5000.0)
    injector.fix(inst)
    assert not inst.active
    assert inst.fixed_at == 5000.0
    disk = ctx.machines[inst.target].actual.find_disk(inst.details["device"])
    assert disk.write_cache


def test_ground_truth_queries(world):
    sim, ctx, rngs = world
    injector = FaultInjector(sim, ctx, rngs)
    a = injector.inject(FaultKind.CPU_CSTATES)
    b = injector.inject(FaultKind.API_FLAKY)
    gt = injector.ground_truth
    assert set(gt.active()) == {a, b}
    assert gt.active_matching(FaultKind.CPU_CSTATES, a.target) is a
    assert gt.active_matching(FaultKind.CPU_CSTATES, "other") is None
    gt.mark_detected(a, when=100.0, by="refapi")
    assert a.detected and a.detected_by == "refapi"
    assert gt.detected() == [a]
    assert gt.detection_latencies() == [100.0 - a.injected_at]


def test_mark_detected_keeps_first_detection(world):
    sim, ctx, rngs = world
    injector = FaultInjector(sim, ctx, rngs)
    inst = injector.inject(FaultKind.CONSOLE_BROKEN)
    gt = injector.ground_truth
    gt.mark_detected(inst, 10.0, "console")
    gt.mark_detected(inst, 99.0, "refapi")
    assert inst.detected_at == 10.0
    assert inst.detected_by == "console"


def test_injection_reproducible(fresh_testbed):
    def run(seed):
        sim = Simulator()
        rngs = RngStreams(seed=seed)
        park = MachinePark.from_testbed(sim, fresh_testbed, rngs)
        ctx = FaultContext.build(park, ServiceHealth(), IMAGES)
        injector = FaultInjector(sim, ctx, rngs, mean_interarrival_s=3600.0)
        injector.start()
        sim.run(until=5 * DAY)
        return [(f.kind, f.target, f.injected_at) for f in injector.ground_truth.all]

    assert run(5) == run(5)
    assert run(5) != run(6)
