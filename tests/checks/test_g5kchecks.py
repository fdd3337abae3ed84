"""Tests for the g5k-checks verification engine."""

import numpy as np
import pytest

from repro.checks import expected_facts, run_g5k_checks
from repro.faults import (
    FaultContext,
    FaultKind,
    ServiceHealth,
    apply_fault,
    revert_fault,
)
from repro.nodes import MachinePark, acquire_all
from repro.testbed import ReferenceApi
from repro.util import RngStreams, Simulator


@pytest.fixture()
def world(fresh_testbed):
    sim = Simulator()
    park = MachinePark.from_testbed(sim, fresh_testbed, RngStreams(seed=4))
    refapi = ReferenceApi(fresh_testbed)
    ctx = FaultContext.build(park, ServiceHealth(), ("debian8-std",))
    return park, refapi, ctx


def test_healthy_node_passes(world):
    park, refapi, _ = world
    for uid in ("graphene-1", "grimoire-1", "azur-29", "chetemi-15"):
        report = run_g5k_checks(park[uid], refapi)
        assert report.ok, report.summary()


def test_expected_facts_equal_acquired_on_healthy_node(world):
    park, refapi, _ = world
    node = park["parasilo-7"]
    assert expected_facts(refapi.node(node.uid)) == acquire_all(node.actual)


def test_every_testbed_node_passes_when_pristine(world):
    park, refapi, _ = world
    bad = [uid for uid, m in park.machines.items()
           if not run_g5k_checks(m, refapi).ok]
    assert bad == []


# Fault kinds whose effect surfaces in acquired facts, with the hint the
# check should produce.
_HARDWARE_KINDS = [
    FaultKind.CPU_CSTATES,
    FaultKind.CPU_HYPERTHREADING,
    FaultKind.CPU_TURBO,
    FaultKind.CPU_POWER_PROFILE,
    FaultKind.DISK_WRITE_CACHE,
    FaultKind.DISK_READ_AHEAD,
    FaultKind.RAM_DIMM_FAILED,
    FaultKind.NIC_DOWNGRADE,
    FaultKind.IB_OFED_FAILURE,
]


@pytest.mark.parametrize("kind", _HARDWARE_KINDS)
def test_node_fault_detected_with_correct_hint(world, kind):
    park, refapi, ctx = world
    rng = np.random.default_rng(7)
    inst = apply_fault(kind, ctx, rng, 1, 0.0)
    assert inst is not None
    report = run_g5k_checks(park[inst.target], refapi, now=10.0)
    assert not report.ok
    assert kind in report.hints(), report.summary()
    revert_fault(inst, ctx)
    assert run_g5k_checks(park[inst.target], refapi).ok


def test_bios_skew_detected_on_affected_nodes(world):
    park, refapi, ctx = world
    rng = np.random.default_rng(8)
    inst = apply_fault(FaultKind.BIOS_VERSION_SKEW, ctx, rng, 1, 0.0)
    for uid in inst.details["nodes"]:
        report = run_g5k_checks(park[uid], refapi)
        assert FaultKind.BIOS_VERSION_SKEW in report.hints()


def test_firmware_skew_detected_via_hdparm(world):
    park, refapi, ctx = world
    rng = np.random.default_rng(9)
    inst = apply_fault(FaultKind.DISK_FIRMWARE_SKEW, ctx, rng, 1, 0.0)
    uid = inst.details["nodes"][0]
    report = run_g5k_checks(park[uid], refapi)
    assert FaultKind.DISK_FIRMWARE_SKEW in report.hints()


def test_dead_disk_detected(world):
    park, refapi, ctx = world
    rng = np.random.default_rng(10)
    inst = apply_fault(FaultKind.DISK_DEAD, ctx, rng, 1, 0.0)
    report = run_g5k_checks(park[inst.target], refapi)
    assert FaultKind.DISK_DEAD in report.hints()


def test_service_fault_invisible_to_g5kchecks(world):
    """Service-level faults don't show in node facts; other families catch them."""
    park, refapi, ctx = world
    rng = np.random.default_rng(11)
    inst = apply_fault(FaultKind.API_FLAKY, ctx, rng, 1, 0.0)
    assert inst is not None
    bad = [uid for uid, m in park.machines.items()
           if not run_g5k_checks(m, refapi).ok]
    assert bad == []


def test_report_summary_readable(world):
    park, refapi, ctx = world
    rng = np.random.default_rng(12)
    inst = apply_fault(FaultKind.DISK_WRITE_CACHE, ctx, rng, 1, 0.0)
    report = run_g5k_checks(park[inst.target], refapi)
    text = report.summary()
    assert inst.target in text
    assert "write_cache" in text
    assert "disk-write-cache" in text  # the actionable hint


def test_ok_summary(world):
    park, refapi, _ = world
    assert run_g5k_checks(park["nova-1"], refapi).summary().endswith("OK")


def test_stale_description_also_flagged(world):
    """The description being wrong (not the hardware) is equally a mismatch:
    g5k-checks cannot tell which side is right — and that is the point."""
    park, refapi, _ = world
    node_desc = refapi.node("grisou-10")
    import dataclasses

    wrong = dataclasses.replace(node_desc, ram_gb=256)  # operator typo
    refapi.update_node(wrong, timestamp=1.0, message="typo in RAM size")
    report = run_g5k_checks(park["grisou-10"], refapi)
    assert FaultKind.RAM_DIMM_FAILED in report.hints()


def test_multiple_faults_all_reported(world):
    park, refapi, ctx = world
    node = park["grimoire-2"]
    node.actual.bios.c_states = True
    node.actual.find_disk("sdb").write_cache = False
    report = run_g5k_checks(node, refapi)
    assert {FaultKind.CPU_CSTATES, FaultKind.DISK_WRITE_CACHE} <= report.hints()
    assert len(report.mismatches) >= 2
