"""Round-trip and semantics tests for the description schema."""

import dataclasses

import pytest

from repro.testbed import (
    BiosSettings,
    NodeDescription,
    TestbedDescription,
)
from repro.util.serialization import decode_dataclass


def test_node_doc_round_trip(testbed):
    node = testbed.node("grimoire-3")
    doc = node.to_doc()
    assert decode_dataclass(NodeDescription, doc) == node


def test_node_doc_round_trip_without_optionals(testbed):
    node = testbed.node("sagittaire-1")  # no IB, no GPU
    assert node.infiniband is None and node.gpu is None
    assert decode_dataclass(NodeDescription, node.to_doc()) == node


def test_testbed_doc_round_trip(testbed):
    doc = testbed.to_doc()
    rebuilt = decode_dataclass(TestbedDescription, doc)
    assert rebuilt == testbed
    assert rebuilt.to_doc() == doc
    assert rebuilt.node_count == testbed.node_count
    assert rebuilt.total_cores == testbed.total_cores


def test_doc_is_json_serializable(testbed):
    import json

    text = json.dumps(testbed.node("paravance-1").to_doc())
    assert "paravance-1" in text


def test_node_description_is_frozen(testbed):
    node = testbed.node("grisou-1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.bios = BiosSettings(hyperthreading=True)
    changed = dataclasses.replace(node, bios=BiosSettings(hyperthreading=True))
    assert changed is not node
    assert changed.bios.hyperthreading
    assert not node.bios.hyperthreading  # original untouched


def test_primary_nic_and_10g(testbed):
    grimoire = testbed.node("grimoire-1")
    assert grimoire.primary_nic.device == "eth0"
    assert grimoire.has_10g
    azur = testbed.node("azur-1")
    assert not azur.has_10g


def test_replace_node_updates_in_place(fresh_testbed):
    node = fresh_testbed.node("grisou-5")
    updated = dataclasses.replace(node, bios=BiosSettings(turbo_boost=True))
    fresh_testbed.replace_node(updated)
    assert fresh_testbed.node("grisou-5").bios.turbo_boost


def test_replace_unknown_node_raises(fresh_testbed):
    node = fresh_testbed.node("grisou-5")
    ghost = dataclasses.replace(node, uid="grisou-999")
    with pytest.raises(KeyError):
        fresh_testbed.replace_node(ghost)


def test_cluster_aggregates(testbed):
    cluster = testbed.cluster("graphene")
    assert cluster.node_count == 90
    assert cluster.total_cores == 90 * 4
    assert cluster.has_infiniband
    assert all(n.gpu is None for n in cluster.nodes)
    assert not cluster.is_dell


def test_site_aggregates(testbed):
    nancy = testbed.site("nancy")
    assert len(nancy.clusters) == 6
    assert nancy.node_count == sum(c.node_count for c in nancy.clusters)


def test_disk_spec_cache_defaults(testbed):
    for disk in testbed.node("parasilo-1").disks:
        assert disk.write_cache and disk.read_ahead


def test_bios_defaults_are_reproducible_profile():
    bios = BiosSettings()
    assert not bios.c_states
    assert not bios.hyperthreading
    assert not bios.turbo_boost
    assert bios.power_profile == "performance"
