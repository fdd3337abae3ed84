"""Tests for the fact-acquisition emulators (each reads a node's hardware
state)."""

import pytest

from repro.nodes import (
    MachinePark,
    acquire_all,
    dmidecode,
    ethtool,
    hdparm,
    ibstat,
    ohai,
    smartctl,
)
from repro.util import RngStreams, Simulator


@pytest.fixture()
def park(fresh_testbed):
    sim = Simulator()
    return MachinePark.from_testbed(sim, fresh_testbed, RngStreams(seed=2))


def test_ohai_reports_cpu_and_memory(park):
    facts = ohai(park["paravance-1"].actual)
    assert facts["hostname"] == "paravance-1"
    assert facts["cpu"]["real"] == 2
    assert facts["cpu"]["cores"] == 16
    assert facts["cpu"]["total"] == 16  # HT disabled
    assert facts["memory"]["total_kb"] == 128 * 1024 * 1024


def test_ohai_sees_ht_flip(park):
    node = park["paravance-1"]
    node.actual.bios.hyperthreading = True
    assert ohai(node.actual)["cpu"]["total"] == 32


def test_ohai_sees_missing_ram(park):
    node = park["paravance-1"]
    node.actual.ram_gb = 64  # broken DIMM bank
    assert ohai(node.actual)["memory"]["total_kb"] == 64 * 1024 * 1024


def test_ohai_block_devices(park):
    facts = ohai(park["grimoire-1"].actual)
    assert set(facts["block_device"]) == {"sda", "sdb", "sdc", "sdd", "sde"}
    assert facts["block_device"]["sdd"]["rotational"] is False  # SSD


def test_ohai_hides_dead_disk(park):
    node = park["grimoire-1"]
    node.actual.find_disk("sdb").healthy = False
    assert "sdb" not in ohai(node.actual)["block_device"]


def test_ethtool_speed_format(park):
    facts = ethtool(park["grisou-1"].actual, "eth0")
    assert facts["speed"] == "10000Mb/s"
    assert facts["link_detected"] == "yes"
    assert facts["driver"] == "i40e"


def test_ethtool_downgraded_link(park):
    node = park["grisou-1"]
    node.actual.find_nic("eth0").rate_gbps = 1.0  # negotiated down (bad cable)
    assert ethtool(node.actual, "eth0")["speed"] == "1000Mb/s"


def test_ethtool_link_down(park):
    node = park["grisou-1"]
    node.actual.find_nic("eth0").link_up = False
    facts = ethtool(node.actual, "eth0")
    assert facts["speed"] == "Unknown!"
    assert facts["link_detected"] == "no"


def test_dmidecode_serial_and_bios(park):
    node = park["chetemi-1"]
    facts = dmidecode(node.actual)
    assert facts["system"]["serial_number"] == node.actual.serial
    assert facts["system"]["product_name"] == "chetemi"
    assert facts["bios"]["version"] == node.actual.bios.version


def test_hdparm_write_cache_rendering(park):
    node = park["parasilo-1"]
    assert hdparm(node.actual, "sda")["write_cache"] == "enabled"
    node.actual.find_disk("sda").write_cache = False
    assert hdparm(node.actual, "sda")["write_cache"] == "disabled"


def test_smartctl_health(park):
    node = park["parasilo-1"]
    assert smartctl(node.actual, "sdb")["smart_status"] == "PASSED"
    node.actual.find_disk("sdb").healthy = False
    assert smartctl(node.actual, "sdb")["smart_status"] == "FAILED"


def test_ibstat_active(park):
    facts = ibstat(park["graphene-1"].actual)
    assert facts["state"] == "Active"
    assert facts["rate_gbps"] == 20


def test_ibstat_ofed_down(park):
    node = park["graphene-1"]
    node.actual.infiniband.stack_ok = False
    assert ibstat(node.actual)["state"] == "Down"


def test_ibstat_absent_on_non_ib_node(park):
    assert ibstat(park["azur-1"].actual) == {}


def test_acquire_all_structure(park):
    facts = acquire_all(park["graphene-1"].actual)
    assert {"ohai", "dmidecode", "ethtool", "hdparm", "smartctl", "ibstat"} <= set(facts)
    assert "eth0" in facts["ethtool"]


def test_acquire_all_no_ibstat_key_without_hca(park):
    assert "ibstat" not in acquire_all(park["azur-1"].actual)


def test_acquisition_is_pure_no_state_change(park):
    node = park["grisou-3"]
    before = node.actual.visible_logical_cpus()
    acquire_all(node.actual)
    assert node.actual.visible_logical_cpus() == before
