"""Tests for bug filing, deduplication, matching and the operator model."""

import pytest

from repro.checksuite import Finding, TestOutcome
from repro.core.bugtracker import BugStatus, BugTracker, OperatorTeam
from repro.faults import FaultContext, FaultInjector, FaultKind, ServiceHealth
from repro.nodes import MachinePark
from repro.testbed import CLUSTER_SPECS, build_grid5000
from repro.util import DAY, RngStreams, Simulator


@pytest.fixture()
def world():
    specs = [s for s in CLUSTER_SPECS if s.name in ("grisou", "grimoire")]
    testbed = build_grid5000(specs)
    sim = Simulator()
    rngs = RngStreams(seed=21)
    park = MachinePark.from_testbed(sim, testbed, rngs)
    ctx = FaultContext.build(park, ServiceHealth(), ("debian8-std",))
    injector = FaultInjector(sim, ctx, rngs)
    tracker = BugTracker(sim, injector.ground_truth, ctx)
    return sim, injector, tracker, ctx


def outcome_with(family, *findings):
    return TestOutcome(family=family, config={}, passed=False,
                       findings=list(findings))


def test_finding_matching_exact_target(world):
    sim, injector, tracker, _ = world
    inst = injector.inject(FaultKind.CONSOLE_BROKEN)
    bugs = tracker.file_from_outcome(outcome_with(
        "console", Finding(FaultKind.CONSOLE_BROKEN, inst.target, "dead")))
    assert len(bugs) == 1
    assert bugs[0].fault is inst
    assert inst.detected
    assert inst.detected_by == "console"


def test_finding_on_node_matches_cluster_fault(world):
    sim, injector, tracker, ctx = world
    inst = injector.inject(FaultKind.DISK_FIRMWARE_SKEW)
    node_uid = inst.details["nodes"][0]
    bugs = tracker.file_from_outcome(outcome_with(
        "disk", Finding(FaultKind.DISK_FIRMWARE_SKEW, node_uid, "old fw")))
    assert bugs[0].fault is inst


def test_finding_on_node_matches_site_fault(world):
    sim, injector, tracker, _ = world
    inst = injector.inject(FaultKind.KWAPI_DOWN)
    bugs = tracker.file_from_outcome(outcome_with(
        "kwapi", Finding(FaultKind.KWAPI_DOWN, inst.target, "no data")))
    assert bugs[0].fault is inst


def test_duplicate_filing_suppressed(world):
    sim, injector, tracker, _ = world
    inst = injector.inject(FaultKind.CPU_TURBO)
    finding = Finding(FaultKind.CPU_TURBO, inst.target, "turbo on")
    first = tracker.file_from_outcome(outcome_with("refapi", finding))
    second = tracker.file_from_outcome(outcome_with("stdenv", finding))
    assert len(first) == 1 and second == []
    assert tracker.filed_count == 1


def test_refiled_after_fix_if_fault_returns(world):
    sim, injector, tracker, ctx = world
    inst = injector.inject(FaultKind.CPU_TURBO)
    finding = Finding(FaultKind.CPU_TURBO, inst.target, "turbo on")
    (bug,) = tracker.file_from_outcome(outcome_with("refapi", finding))
    tracker.close(bug, BugStatus.FIXED)
    injector.fix(inst)
    # the same machine breaks again later: a *new* fault, a *new* bug
    inst2 = injector.inject(FaultKind.CPU_TURBO)
    finding2 = Finding(FaultKind.CPU_TURBO, inst2.target, "turbo on again")
    bugs = tracker.file_from_outcome(outcome_with("refapi", finding2))
    assert len(bugs) == 1
    assert tracker.filed_count == 2


def test_unexplained_finding_files_unexplained_bug(world):
    sim, injector, tracker, _ = world
    bugs = tracker.file_from_outcome(outcome_with(
        "oarstate", Finding(FaultKind.RANDOM_REBOOTS, "grisou-7", "suspected")))
    assert len(bugs) == 1
    assert bugs[0].fault is None
    assert not bugs[0].explained
    # dedup applies to unexplained bugs too
    again = tracker.file_from_outcome(outcome_with(
        "oarstate", Finding(FaultKind.RANDOM_REBOOTS, "grisou-7", "suspected")))
    assert again == []


def test_finding_without_hint_is_unexplained(world):
    sim, injector, tracker, _ = world
    injector.inject(FaultKind.DISK_WRITE_CACHE)
    bugs = tracker.file_from_outcome(outcome_with(
        "disk", Finding(None, "grisou-1", "slow, cause unknown")))
    assert bugs[0].fault is None


def test_statistics(world):
    sim, injector, tracker, _ = world
    a = injector.inject(FaultKind.CPU_CSTATES)
    tracker.file_from_outcome(outcome_with(
        "refapi", Finding(FaultKind.CPU_CSTATES, a.target, "x")))
    tracker.file_from_outcome(outcome_with(
        "oarstate", Finding(FaultKind.RANDOM_REBOOTS, "grisou-9", "y")))
    assert tracker.filed_count == 2
    assert tracker.open_count == 2
    assert tracker.unexplained_count == 1
    tracker.close(tracker.bugs[0], BugStatus.FIXED)
    assert tracker.fixed_count == 1
    assert tracker.open_count == 1


def test_operator_fixes_explained_bug(world):
    sim, injector, tracker, ctx = world
    operators = OperatorTeam(sim, tracker, injector, RngStreams(seed=5))
    inst = injector.inject(FaultKind.DISK_WRITE_CACHE)
    tracker.file_from_outcome(outcome_with(
        "disk", Finding(FaultKind.DISK_WRITE_CACHE, inst.target, "cache off")))
    sim.run(until=120 * DAY)
    (bug,) = tracker.bugs
    assert bug.status == BugStatus.FIXED
    assert not inst.active  # fault actually reverted
    assert inst.fixed_at is not None
    disk = ctx.machines[inst.target].actual.find_disk(inst.details["device"])
    assert disk.write_cache


def test_operator_closes_unexplained_quickly(world):
    sim, injector, tracker, _ = world
    OperatorTeam(sim, tracker, injector, RngStreams(seed=5))
    tracker.file_from_outcome(outcome_with(
        "oarstate", Finding(FaultKind.RANDOM_REBOOTS, "grisou-3", "transient")))
    sim.run(until=30 * DAY)
    (bug,) = tracker.bugs
    assert bug.status == BugStatus.CLOSED_UNEXPLAINED


def test_operator_speedup_shortens_fixes(world):
    def median_fix(speedup, seed):
        specs = [s for s in CLUSTER_SPECS if s.name in ("grisou", "grimoire")]
        testbed = build_grid5000(specs)
        sim = Simulator()
        rngs = RngStreams(seed=seed)
        park = MachinePark.from_testbed(sim, testbed, rngs)
        ctx = FaultContext.build(park, ServiceHealth(), ("debian8-std",))
        injector = FaultInjector(sim, ctx, rngs)
        tracker = BugTracker(sim, injector.ground_truth, ctx)
        OperatorTeam(sim, tracker, injector, rngs, speedup=speedup)
        for _ in range(30):
            inst = injector.inject(FaultKind.CPU_CSTATES)
            if inst is None:
                break
            tracker.file_from_outcome(outcome_with(
                "refapi", Finding(FaultKind.CPU_CSTATES, inst.target, "c")))
        sim.run(until=400 * DAY)
        times = tracker.time_to_fix()
        return sum(times) / len(times)

    assert median_fix(4.0, 3) < median_fix(1.0, 3)


def test_time_to_fix_only_counts_fixed(world):
    sim, injector, tracker, _ = world
    assert tracker.time_to_fix() == []
