"""Tests for Ganglia and kwapi probes."""

import numpy as np
import pytest

from repro.faults import FaultContext, FaultKind, ServiceHealth, apply_fault
from repro.monitoring import Ganglia, Kwapi
from repro.nodes import MachinePark
from repro.util import RngStreams, Simulator


@pytest.fixture()
def world(fresh_testbed):
    sim = Simulator()
    services = ServiceHealth()
    park = MachinePark.from_testbed(sim, fresh_testbed, RngStreams(seed=8))
    return sim, services, park, fresh_testbed


def test_ganglia_on_demand_sample(world):
    _, _, park, _ = world
    ganglia = Ganglia(park)
    park["grisou-1"].cpu_load = 0.5
    assert ganglia.sample_park(["grisou-1"]) == 1
    assert ganglia.sample("grisou-1") == (
        0.5, park["grisou-1"].actual.ram_gb, 1.0)


def test_ganglia_sees_crash(world):
    _, _, park, _ = world
    ganglia = Ganglia(park)
    park["grisou-1"].crash()
    assert ganglia.sample("grisou-1")[2] == 0.0


def test_kwapi_reports_documented_outlet(world):
    _, services, park, testbed = world
    kwapi = Kwapi(park, testbed, services)
    value = kwapi.node_power_watts("grisou-1")
    assert value == pytest.approx(park["grisou-1"].power_draw_watts())


def test_kwapi_cable_swap_reports_wrong_node(world):
    _, services, park, testbed = world
    kwapi = Kwapi(park, testbed, services)
    ctx = FaultContext.build(park, services, ("debian8-std",))
    rng = np.random.default_rng(3)
    inst = apply_fault(FaultKind.PDU_CABLE_SWAP, ctx, rng, 1, 0.0)
    a, b = inst.details["nodes"]
    park[a].cpu_load = 1.0  # distinct loads so the swap is observable
    park[b].cpu_load = 0.0
    assert kwapi.node_power_watts(a) == pytest.approx(park[b].power_draw_watts())
    assert kwapi.node_power_watts(b) == pytest.approx(park[a].power_draw_watts())
    assert kwapi.node_power_watts(a) != pytest.approx(park[a].power_draw_watts())


def test_kwapi_down_site_returns_none(world):
    _, services, park, testbed = world
    services.kwapi_down.add("nancy")
    kwapi = Kwapi(park, testbed, services)
    assert kwapi.node_power_watts("grisou-1") is None
    assert kwapi.node_power_watts("paravance-1") is not None  # rennes fine


def test_kwapi_unknown_node(world):
    _, services, park, testbed = world
    kwapi = Kwapi(park, testbed, services)
    assert kwapi.node_power_watts("ghost-1") is None


def test_power_reflects_load(world):
    _, services, park, testbed = world
    kwapi = Kwapi(park, testbed, services)
    idle = kwapi.node_power_watts("grisou-3")
    park["grisou-3"].cpu_load = 1.0
    busy = kwapi.node_power_watts("grisou-3")
    assert busy > idle


# -- park sweeps ----------------------------------------------------------------


def test_ganglia_sample_park_matches_per_node_samples(world):
    _, _, park, _ = world
    ganglia = Ganglia(park)
    uids = sorted(park.machines)
    assert ganglia.sample_park(uids) == len(uids)
    assert sum(ganglia.sample_park([uid]) for uid in uids) == len(uids)


def test_ganglia_handles_survive_machine_state_changes(world):
    # The probe reads the live machine on every sample, never a snapshot:
    # a later crash/load change must show up in the next sample.
    _, _, park, _ = world
    ganglia = Ganglia(park)
    ganglia.sample("grisou-1")
    park["grisou-1"].cpu_load = 0.9
    park["grisou-1"].crash()
    cpu, _, up = ganglia.sample("grisou-1")
    assert (cpu, up) == (0.9, 0.0)


def test_kwapi_sample_park_matches_per_node_reads(world):
    # The sweep builds the cabling map once; it must count exactly the
    # nodes whose per-node read reports a value, a down site included.
    _, services, park, testbed = world
    kwapi = Kwapi(park, testbed, services)
    services.kwapi_down.add(testbed.sites[0].uid)
    uids = sorted(park.machines) + ["ghost-1"]
    reads = [kwapi.node_power_watts(uid) for uid in uids]
    assert kwapi.sample_park(uids) == sum(w is not None for w in reads)


def test_kwapi_vectorized_sweep_equals_scalar_sweep(world):
    # One sweep per state change: after a cable swap, a load change and a
    # site going down, the sweep counts what per-node reads report.
    _, services, park, testbed = world
    kwapi = Kwapi(park, testbed, services)
    uids = sorted(park.machines)
    ctx = FaultContext.build(park, services, ("debian8-std",))
    apply_fault(FaultKind.PDU_CABLE_SWAP, ctx, np.random.default_rng(3), 1, 0.0)
    for step, site in enumerate(s.uid for s in testbed.sites[:2]):
        park[uids[step]].cpu_load = 0.6
        services.kwapi_down.add(site)
        reads = [kwapi.node_power_watts(uid) for uid in uids]
        assert kwapi.sample_park(uids) == sum(w is not None for w in reads)
        assert kwapi.sample_park(uids) < len(uids)


def test_kwapi_sample_park_reports_swapped_cables(world):
    # A swapped pair still reports through the sweep: each node's
    # documented outlet measures the neighbour instead of nothing.
    _, services, park, testbed = world
    ctx = FaultContext.build(park, services, ("debian8-std",))
    rng = np.random.default_rng(3)
    inst = apply_fault(FaultKind.PDU_CABLE_SWAP, ctx, rng, 1, 0.0)
    a, b = inst.details["nodes"]
    kwapi = Kwapi(park, testbed, services)
    assert kwapi.sample_park([a, b]) == 2
    assert kwapi.sample_park(sorted(park.machines)) == len(park.machines)


def test_kwapi_sample_park_skips_down_sites(world):
    _, services, park, testbed = world
    kwapi = Kwapi(park, testbed, services)
    site = testbed.sites[0].uid
    services.kwapi_down.add(site)
    down_nodes = [n.uid for n in testbed.iter_nodes() if n.site == site]
    count = kwapi.sample_park(sorted(park.machines))
    assert count == len(park.machines) - len(down_nodes)
