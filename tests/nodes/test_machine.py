"""Tests for simulated machines."""

import pytest

from repro.nodes import MachinePark, PowerState
from repro.util import RngStreams, Simulator


@pytest.fixture()
def park(fresh_testbed):
    sim = Simulator()
    return sim, MachinePark.from_testbed(sim, fresh_testbed, RngStreams(seed=1))


def test_park_covers_all_nodes(park, fresh_testbed):
    _, p = park
    assert len(p) == fresh_testbed.node_count


def test_actual_state_matches_description_initially(park, fresh_testbed):
    _, p = park
    node = p["grimoire-1"]
    desc = fresh_testbed.node("grimoire-1")
    assert node.actual.ram_gb == desc.ram_gb
    assert node.actual.bios.c_states == desc.bios.c_states
    assert [d.firmware for d in node.actual.disks] == [d.firmware for d in desc.disks]
    assert node.actual.pdu_uid == desc.pdu.pdu_uid


def test_nodes_start_powered_on(park):
    _, p = park
    assert all(m.state == PowerState.ON for m in p.machines.values())


def test_boot_takes_cluster_scaled_time(park):
    sim, p = park
    node = p["azur-1"]  # mean boot 330s
    done = sim.process(node.boot())
    sim.run()
    assert done.triggered
    assert 200 < sim.now < 550
    assert node.boot_count == 1


def test_boot_into_environment(park):
    sim, p = park
    node = p["grisou-1"]
    sim.process(node.boot(env="debian9-min"))
    sim.run()
    assert node.deployed_env == "debian9-min"


def test_boot_durations_vary_but_reproducibly(fresh_testbed):
    def boots(seed):
        sim = Simulator()
        park = MachinePark.from_testbed(sim, fresh_testbed, RngStreams(seed=seed))
        return [park[f"grisou-{i}"].sample_boot_duration() for i in range(1, 6)]

    a, b = boots(7), boots(7)
    assert a == b
    assert len(set(a)) > 1  # jitter across nodes


def test_boot_race_fault_inflates_some_boots(park):
    _, p = park
    node = p["grisou-2"]
    node.boot_race_delay_s = 300.0
    samples = [node.sample_boot_duration() for _ in range(40)]
    slow = [s for s in samples if s > 300]
    fast = [s for s in samples if s <= 300]
    assert slow and fast  # intermittent: some boots hit the race, some don't


def test_crash_makes_unavailable(park):
    _, p = park
    node = p["uvb-1"]
    node.crash()
    assert node.state == PowerState.CRASHED
    assert not node.available


def test_disk_bandwidth_reference(park):
    _, p = park
    node = p["grimoire-1"]
    hdd = node.disk_bandwidth_mbps("sdb")  # Toshiba HDD
    ssd = node.disk_bandwidth_mbps("sdd")  # Intel SSD
    assert 100 < hdd < 150
    assert ssd > 400


def test_disk_write_cache_off_halves_bandwidth(park):
    _, p = park
    node = p["grimoire-1"]
    ref = node.disk_bandwidth_mbps("sdb")
    node.actual.find_disk("sdb").write_cache = False
    assert node.disk_bandwidth_mbps("sdb") == pytest.approx(ref * 0.45)


def test_old_firmware_slows_disk(park):
    _, p = park
    node = p["grimoire-1"]
    ref = node.disk_bandwidth_mbps("sdb")
    node.actual.find_disk("sdb").firmware = "FL1A"  # one version behind FL1D
    assert node.disk_bandwidth_mbps("sdb") == pytest.approx(ref * 0.95)


def test_dead_disk_has_zero_bandwidth(park):
    _, p = park
    node = p["grimoire-1"]
    node.actual.find_disk("sdb").healthy = False
    assert node.disk_bandwidth_mbps("sdb") == 0.0


def test_network_rate_and_link_down(park):
    _, p = park
    node = p["grisou-1"]
    assert node.network_rate_gbps("eth0") == 10.0
    node.actual.find_nic("eth0").link_up = False
    assert node.network_rate_gbps("eth0") == 0.0


def test_power_draw_scales_with_load(park):
    _, p = park
    node = p["paravance-1"]
    idle = node.power_draw_watts()
    node.cpu_load = 1.0
    busy = node.power_draw_watts()
    assert busy > idle > 50


def test_power_draw_when_off(park):
    _, p = park
    node = p["paravance-1"]
    node.crash()
    assert node.power_draw_watts() < 10


def test_find_disk_unknown_raises(park):
    _, p = park
    with pytest.raises(KeyError):
        p["azur-1"].actual.find_disk("sdz")
    with pytest.raises(KeyError):
        p["azur-1"].actual.find_nic("eth9")


def test_cluster_and_site_selectors(park, fresh_testbed):
    _, p = park
    grisou = [m for m in p.machines.values() if m.cluster_uid == "grisou"]
    assert len(grisou) == fresh_testbed.cluster("grisou").node_count
    assert {m.site_uid for m in grisou} == {fresh_testbed.cluster("grisou").site}


def test_visible_logical_cpus_depends_on_ht(park):
    _, p = park
    node = p["paravance-1"]  # E5-2630 v3: 2x8 cores, 2 threads
    assert node.actual.visible_logical_cpus() == 16  # HT off by default
    node.actual.bios.hyperthreading = True
    assert node.actual.visible_logical_cpus() == 32
