"""Tests for Ganglia and kwapi probes."""

import numpy as np
import pytest

from repro.faults import FaultContext, FaultKind, ServiceHealth, apply_fault
from repro.monitoring import Ganglia, Kwapi
from repro.nodes import MachinePark
from repro.util import MonitoringError, RngStreams, Simulator


@pytest.fixture()
def world(fresh_testbed):
    sim = Simulator()
    services = ServiceHealth()
    park = MachinePark.from_testbed(sim, fresh_testbed, RngStreams(seed=8))
    return sim, services, park, fresh_testbed


def test_ganglia_on_demand_sample(world):
    sim, _, park, _ = world
    ganglia = Ganglia(sim, park)
    park["grisou-1"].cpu_load = 0.5
    assert ganglia.sample_park(["grisou-1"]) == 1
    assert ganglia.store.last("grisou-1.cpu_load") == (0.0, 0.5)
    assert ganglia.store.last("grisou-1.up") == (0.0, 1.0)


def test_ganglia_sees_crash(world):
    sim, _, park, _ = world
    ganglia = Ganglia(sim, park)
    park["grisou-1"].crash()
    ganglia.sample_park(["grisou-1"])
    assert ganglia.store.last("grisou-1.up")[1] == 0.0


def test_ganglia_periodic_sampling(world):
    sim, _, park, _ = world
    ganglia = Ganglia(sim, park, period_s=30.0)
    ganglia.start(node_uids=["grisou-1"])
    sim.run(until=301.0)
    ganglia.stop()
    t, _ = ganglia.store.window("grisou-1.cpu_load", 0.0, 1e9)
    assert len(t) == 11  # t=0,30,...,300


def test_kwapi_reports_documented_outlet(world):
    sim, services, park, testbed = world
    kwapi = Kwapi(sim, park, testbed, services)
    value = kwapi.node_power_watts("grisou-1")
    assert value == pytest.approx(park["grisou-1"].power_draw_watts())


def test_kwapi_cable_swap_reports_wrong_node(world):
    sim, services, park, testbed = world
    kwapi = Kwapi(sim, park, testbed, services)
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
    sim, services, park, testbed = world
    services.kwapi_down.add("nancy")
    kwapi = Kwapi(sim, park, testbed, services)
    assert kwapi.node_power_watts("grisou-1") is None
    assert kwapi.node_power_watts("paravance-1") is not None  # rennes fine


def test_kwapi_unknown_node(world):
    sim, services, park, testbed = world
    kwapi = Kwapi(sim, park, testbed, services)
    assert kwapi.node_power_watts("ghost-1") is None


def test_kwapi_records_series(world):
    sim, services, park, testbed = world
    kwapi = Kwapi(sim, park, testbed, services)
    kwapi.node_power_watts("grisou-2")
    assert kwapi.store.has_series("grisou-2.power_w")


def test_power_reflects_load(world):
    sim, services, park, testbed = world
    kwapi = Kwapi(sim, park, testbed, services)
    idle = kwapi.node_power_watts("grisou-3")
    park["grisou-3"].cpu_load = 1.0
    busy = kwapi.node_power_watts("grisou-3")
    assert busy > idle


# -- batch park sweeps ---------------------------------------------------------


def test_ganglia_sample_park_matches_per_node_samples(world):
    sim, _, park, _ = world
    ganglia = Ganglia(sim, park)
    reference = Ganglia(sim, park)
    uids = sorted(park.machines)
    park[uids[0]].cpu_load = 0.4
    park[uids[1]].crash()

    assert ganglia.sample_park(uids) == len(uids)
    for uid in uids:
        reference.sample_park([uid])
    for uid in uids:
        for metric in ("cpu_load", "mem_total_gb", "up"):
            key = f"{uid}.{metric}"
            assert ganglia.store.last(key) == reference.store.last(key)


def test_ganglia_handles_survive_machine_state_changes(world):
    # The probe reads the live machine on every sample, never a snapshot:
    # a later crash/load change must show up in the next sample.
    sim, _, park, _ = world
    ganglia = Ganglia(sim, park)
    ganglia.sample_park(["grisou-1"])
    park["grisou-1"].cpu_load = 0.9
    park["grisou-1"].crash()
    ganglia.sample_park(["grisou-1"])
    assert ganglia.store.last("grisou-1.cpu_load")[1] == 0.9
    assert ganglia.store.last("grisou-1.up")[1] == 0.0


def test_kwapi_sample_park_matches_per_node_reads(world, fresh_testbed):
    sim, services, park, testbed = world
    kwapi = Kwapi(sim, park, testbed, services)
    reference = Kwapi(sim, park, testbed, services)
    uids = sorted(park.machines)
    park[uids[0]].cpu_load = 0.8

    count = kwapi.sample_park(uids)
    assert count == len(uids)
    for uid in uids:
        want = reference.node_power_watts(uid)
        assert kwapi.store.last(f"{uid}.power_w")[1] == pytest.approx(want)


def test_kwapi_sample_park_reports_swapped_cables(world):
    # The slide-13 bug must survive the batch path: after a cable swap the
    # sweep records the *neighbour's* draw under the documented node.
    sim, services, park, testbed = world
    ctx = FaultContext.build(park, services, ("debian8-std",))
    rng = np.random.default_rng(3)
    inst = apply_fault(FaultKind.PDU_CABLE_SWAP, ctx, rng, 1, 0.0)
    a, b = inst.details["nodes"]
    park[a].cpu_load = 0.9  # make the two draws distinguishable
    park[b].cpu_load = 0.0

    kwapi = Kwapi(sim, park, testbed, services)
    kwapi.sample_park(sorted(park.machines))
    reported_a = kwapi.store.last(f"{a}.power_w")[1]
    assert reported_a == pytest.approx(park[b].power_draw_watts())
    assert reported_a != pytest.approx(park[a].power_draw_watts())


def test_kwapi_sample_park_skips_down_sites(world):
    sim, services, park, testbed = world
    kwapi = Kwapi(sim, park, testbed, services)
    site = testbed.sites[0].uid
    services.kwapi_down.add(site)
    down_nodes = [u for u, s in kwapi._site_of.items() if s == site]
    count = kwapi.sample_park(sorted(park.machines))
    assert count == len(park.machines) - len(down_nodes)
    for uid in down_nodes:
        assert not kwapi.store.has_series(f"{uid}.power_w")


# -- park sweeps vs per-node sweeps ---------------------------------------------
#
# sample_park lands a whole sweep with one numpy scatter per metric into
# the probe's column block; a loop of per-node reads on a second probe
# (one-node sweeps, node_power_watts) is the oracle.  Both must record
# byte-identical samples.


def test_ganglia_vectorized_sweep_equals_scalar_sweep(world):
    sim, _, park, _ = world
    vector = Ganglia(sim, park)  # one scatter per metric per sweep
    scalar = Ganglia(sim, park)  # oracle: one one-node sweep per node
    uids = sorted(park.machines)
    park[uids[0]].cpu_load = 0.7
    park[uids[2]].crash()
    for step in range(3):  # several sweeps so the series accumulate history
        sim.run(until=float(step))
        assert vector.sample_park(uids) == len(uids)
        for uid in uids:
            scalar.sample_park([uid])
    for uid in uids:
        for metric in ("cpu_load", "mem_total_gb", "up"):
            key = f"{uid}.{metric}"
            t, v = vector.store.window(key, 0.0, 1e9)
            ot, ov = scalar.store.window(key, 0.0, 1e9)
            assert list(t) == list(ot) == [0.0, 1.0, 2.0]
            assert list(v) == list(ov)
            assert vector.store.last(key) == scalar.store.last(key)


def test_kwapi_vectorized_sweep_equals_scalar_sweep(world):
    sim, services, park, testbed = world
    vector = Kwapi(sim, park, testbed, services)
    scalar = Kwapi(sim, park, testbed, services)  # oracle: per-node reads
    services.kwapi_down.add(testbed.sites[0].uid)  # sweep must skip a site
    uids = sorted(park.machines)
    park[uids[0]].cpu_load = 0.6
    count = vector.sample_park(uids)
    reads = {uid: scalar.node_power_watts(uid) for uid in uids}
    assert count == sum(w is not None for w in reads.values())
    for uid in uids:
        key = f"{uid}.power_w"
        assert vector.store.has_series(key) == scalar.store.has_series(key)
        if reads[uid] is not None:
            assert vector.store.last(key) == scalar.store.last(key)


# -- one block per probe ------------------------------------------------------


def test_ganglia_on_demand_sample_lands_in_column_block(world):
    # A one-node sweep appends to the same column a park sweep scatters
    # into: mixed single and swept samples stay one chronological series.
    sim, _, park, _ = world
    ganglia = Ganglia(sim, park)
    ganglia.sample_park(["grisou-1"])
    ganglia.sample_park(sorted(park.machines))
    t, _ = ganglia.store.window("grisou-1.cpu_load", 0.0, 1e9)
    assert len(t) == 2


def test_probes_share_one_store_and_a_second_ganglia_raises(world):
    # Each probe reserves its own columns; a second writer of the same
    # series names is refused instead of sharing (or shadowing) them.
    sim, services, park, testbed = world
    ganglia = Ganglia(sim, park)
    kwapi = Kwapi(sim, park, testbed, services, store=ganglia.store)
    uids = sorted(park.machines)
    assert ganglia.sample_park(uids) == len(uids)
    assert kwapi.sample_park(uids) == len(uids)
    assert ganglia.store.last("grisou-1.cpu_load")[0] == 0.0
    assert ganglia.store.last("grisou-1.power_w")[0] == 0.0
    with pytest.raises(MonitoringError, match="already stored"):
        Ganglia(sim, park, store=ganglia.store)
    with pytest.raises(MonitoringError, match="already stored"):
        Kwapi(sim, park, testbed, services, store=ganglia.store)


def test_ganglia_restart_within_a_period_keeps_one_sampler(world):
    sim, _, park, _ = world
    ganglia = Ganglia(sim, park, period_s=30.0)
    ganglia.start(node_uids=["grisou-1"])
    sim.run(until=10.0)
    ganglia.stop()
    ganglia.start(node_uids=["grisou-1"])  # the old loop is still asleep
    sim.run(until=301.0)
    ganglia.stop()
    t, _ = ganglia.store.window("grisou-1.cpu_load", 0.0, 1e9)
    assert list(t) == [0.0] + [10.0 + 30.0 * k for k in range(10)]


@pytest.mark.parametrize("sweep", [
    lambda g, k, uids: g.sample_park(uids),
    lambda g, k, uids: g.start(uids),
    lambda g, k, uids: k.sample_park(uids),
], ids=["ganglia-sample_park", "ganglia-start", "kwapi-sample_park"])
def test_sweep_rejects_repeated_nodes(world, sweep):
    # A scatter writes a repeated column once: the sweep must refuse the
    # input rather than silently drop a sample.
    sim, services, park, testbed = world
    ganglia = Ganglia(sim, park)
    kwapi = Kwapi(sim, park, testbed, services)
    with pytest.raises(MonitoringError, match="grisou-1"):
        sweep(ganglia, kwapi, ["grisou-1", "grisou-2", "grisou-1"])
    sim.run(until=1.0)
    assert ganglia.store.series_names() == []
    assert kwapi.store.series_names() == []
