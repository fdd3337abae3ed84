"""Tests for the physical network topology."""

import pytest

from repro.testbed import build_grid5000, build_topology


def test_every_compute_node_in_graph(testbed, topology):
    # Every described compute node is in the table, and every switch the
    # inventory counts carries at least one node.
    switches = set()
    for node in testbed.iter_nodes():
        switches.add(topology.switch_of(node.uid))
        assert topology.site_of(node.uid) == node.site
    assert len(switches) == topology.switch_count


def test_one_router_per_site(testbed, topology):
    assert topology.router_count == testbed.site_count


def test_switch_count_matches_48_port_racks(testbed, topology):
    expected = sum((c.node_count + 47) // 48 for c in testbed.iter_clusters())
    assert topology.switch_count == expected


def test_every_node_has_exactly_one_switch(testbed, topology):
    for cluster in testbed.iter_clusters():
        for node in cluster.nodes:
            assert topology.switch_of(node.uid).startswith(f"sw-{cluster.uid}-")
            assert topology.site_of(node.uid) == cluster.site


def test_same_cluster_small_is_same_switch(topology):
    # orion has 4 nodes -> single switch
    assert topology.switch_of("orion-1") == topology.switch_of("orion-4")


def test_large_cluster_spans_switches(topology):
    # graphene has 90 nodes -> 2 switches
    assert topology.switch_of("graphene-1") != topology.switch_of("graphene-90")


def test_nodes_on_switch_partition_cluster(testbed, topology):
    # Switch k of a cluster takes the k-th run of 48 nodes, in description
    # order: KaVLAN's reconfiguration time counts these switches.
    cluster = testbed.cluster("graphene")
    names = [topology.switch_of(n.uid) for n in cluster.nodes]
    assert names == ["sw-graphene-1"] * 48 + ["sw-graphene-2"] * 42


def test_switch_of_router_raises(topology):
    for name in ("gw-nancy", "sw-graphene-1", "ghost-1"):
        with pytest.raises(KeyError):
            topology.switch_of(name)


def test_topology_deterministic():
    t = build_grid5000()
    a = build_topology(t)
    b = build_topology(t)
    for node in t.iter_nodes():
        assert a.switch_of(node.uid) == b.switch_of(node.uid)
        assert a.site_of(node.uid) == b.site_of(node.uid)
    assert (a.switch_count, a.router_count) == (b.switch_count, b.router_count)
