"""Tests for fault application and reversion (every kind round-trips)."""

import numpy as np
import pytest

from repro.faults import (
    FAULT_SPECS,
    FaultContext,
    FaultKind,
    ServiceHealth,
    apply_fault,
    revert_fault,
)
from repro.nodes import MachinePark
from repro.util import RngStreams, Simulator

IMAGES = ("debian8-std", "debian9-min", "centos7-min")


@pytest.fixture()
def ctx(fresh_testbed):
    sim = Simulator()
    park = MachinePark.from_testbed(sim, fresh_testbed, RngStreams(seed=3))
    return FaultContext.build(park, ServiceHealth(), IMAGES)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def _snapshot(ctx):
    """Cheap digest of the whole mutable world, for revert verification."""
    parts = []
    for uid in sorted(ctx.machines.machines):
        m = ctx.machines[uid]
        hw = m.actual
        parts.append((
            uid, hw.bios.version, hw.bios.c_states, hw.bios.hyperthreading,
            hw.bios.turbo_boost, hw.bios.power_profile, hw.ram_gb,
            tuple((d.device, d.firmware, d.write_cache, d.read_ahead, d.healthy)
                  for d in hw.disks),
            tuple((n.device, n.rate_gbps, n.link_up) for n in hw.nics),
            hw.infiniband.stack_ok if hw.infiniband else None,
            hw.pdu_uid, hw.pdu_port, hw.console_ok,
            m.crash_mtbf_s, m.boot_race_delay_s, m.boot_failure_prob,
        ))
    s = ctx.services
    parts.append((
        tuple(sorted(s.api_failure_prob.items())),
        tuple(sorted(s.cmdline_failure_prob.items())),
        tuple(sorted(s.broken_images)),
        tuple(sorted(s.deploy_degradation.items())),
        tuple(sorted(s.kavlan_broken)),
        tuple(sorted(s.kwapi_down)),
        tuple(sorted((k, tuple(sorted(v))) for k, v in s.oar_property_drift.items())),
    ))
    return parts


@pytest.mark.parametrize("kind", list(FAULT_SPECS))
def test_every_kind_applies_and_reverts_cleanly(ctx, rng, kind):
    before = _snapshot(ctx)
    instance = apply_fault(kind, ctx, rng, fault_id=1, now=100.0)
    assert instance is not None, f"{kind} found no target on a pristine testbed"
    assert _snapshot(ctx) != before, f"{kind} applied but changed nothing"
    assert instance.active
    assert instance.site
    revert_fault(instance, ctx)
    assert not instance.active
    assert _snapshot(ctx) == before, f"{kind} revert did not restore state"


@pytest.mark.parametrize("kind", list(FAULT_SPECS))
def test_revert_is_idempotent(ctx, rng, kind):
    instance = apply_fault(kind, ctx, rng, fault_id=1, now=0.0)
    revert_fault(instance, ctx)
    snapshot = _snapshot(ctx)
    revert_fault(instance, ctx)  # second revert must be a no-op
    assert _snapshot(ctx) == snapshot


def test_cstates_fault_targets_node(ctx, rng):
    inst = apply_fault(FaultKind.CPU_CSTATES, ctx, rng, 1, 0.0)
    assert ctx.machines[inst.target].actual.bios.c_states is True
    assert inst.cluster == ctx.machines[inst.target].cluster_uid


def test_hyperthreading_respects_capability(ctx, rng):
    for _ in range(30):
        inst = apply_fault(FaultKind.CPU_HYPERTHREADING, ctx, rng, 1, 0.0)
        node = ctx.machines[inst.target]
        assert node.description.cpu.ht_capable
        revert_fault(inst, ctx)


def test_firmware_skew_hits_subset_of_cluster(ctx, rng):
    inst = apply_fault(FaultKind.DISK_FIRMWARE_SKEW, ctx, rng, 1, 0.0)
    cluster_nodes = ctx.clusters[inst.target]
    affected = inst.details["nodes"]
    assert 1 <= len(affected) <= len(cluster_nodes) // 2
    device = inst.details["device"]
    firmwares = {ctx.machines[u].actual.find_disk(device).firmware for u in cluster_nodes}
    assert len(firmwares) == 2  # skew: two versions coexist


def test_pdu_swap_breaks_wiring_consistency(ctx, rng):
    inst = apply_fault(FaultKind.PDU_CABLE_SWAP, ctx, rng, 1, 0.0)
    a_uid, b_uid = inst.details["nodes"]
    a, b = ctx.machines[a_uid], ctx.machines[b_uid]
    assert (a.actual.pdu_uid, a.actual.pdu_port) == (b.description.pdu.pdu_uid, b.description.pdu.port)
    assert (b.actual.pdu_uid, b.actual.pdu_port) == (a.description.pdu.pdu_uid, a.description.pdu.port)


def test_ram_fault_halves_memory(ctx, rng):
    inst = apply_fault(FaultKind.RAM_DIMM_FAILED, ctx, rng, 1, 0.0)
    node = ctx.machines[inst.target]
    assert node.actual.ram_gb == node.description.ram_gb // 2


def test_env_broken_target_format(ctx, rng):
    inst = apply_fault(FaultKind.ENV_IMAGE_BROKEN, ctx, rng, 1, 0.0)
    image, cluster = inst.target.split("@")
    assert image in IMAGES
    assert cluster in ctx.clusters
    assert not ctx.services.image_ok(image, cluster)


def test_site_fault_has_no_cluster(ctx, rng):
    inst = apply_fault(FaultKind.API_FLAKY, ctx, rng, 1, 0.0)
    assert inst.cluster is None
    assert inst.site in ctx.sites


def test_api_flaky_not_stacked_on_same_site(ctx, rng):
    sites = set()
    for i in range(40):
        inst = apply_fault(FaultKind.API_FLAKY, ctx, rng, i, 0.0)
        if inst is None:
            break
        sites.add(inst.target)
    assert len(sites) == len(ctx.sites)  # once all sites flaky, no more targets


def test_matches_helper(ctx, rng):
    inst = apply_fault(FaultKind.CONSOLE_BROKEN, ctx, rng, 1, 0.0)
    assert inst.matches(FaultKind.CONSOLE_BROKEN, inst.target)
    assert not inst.matches(FaultKind.CPU_TURBO, inst.target)
    revert_fault(inst, ctx)
    assert not inst.matches(FaultKind.CONSOLE_BROKEN, inst.target)


def test_detectable_by_families_are_known(ctx):
    known = {
        "refapi", "oarproperties", "dellbios", "oarstate", "cmdline", "sidapi",
        "environments", "stdenv", "paralleldeploy", "multireboot", "multideploy",
        "console", "kavlan", "kwapi", "mpigraph", "disk",
    }
    for spec in FAULT_SPECS.values():
        assert spec.detectable_by <= known, spec.kind
        assert spec.detectable_by, f"{spec.kind} undetectable by any family"


def test_boot_race_applies_cluster_wide(ctx, rng):
    inst = apply_fault(FaultKind.KERNEL_BOOT_RACE, ctx, rng, 1, 0.0)
    for uid in ctx.clusters[inst.target]:
        assert ctx.machines[uid].boot_race_delay_s == inst.details["delay_s"]
