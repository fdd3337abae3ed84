"""Tests for the physical network topology."""

import networkx as nx
import pytest

from repro.testbed import build_grid5000, build_topology


def test_every_compute_node_in_graph(testbed, topology):
    for node in testbed.iter_nodes():
        assert topology.kind(node.uid) == "node"


def test_one_router_per_site(testbed, topology):
    assert topology.router_count == testbed.site_count


def test_switch_count_matches_48_port_racks(testbed, topology):
    expected = sum((c.node_count + 47) // 48 for c in testbed.iter_clusters())
    assert topology.switch_count == expected


def test_every_node_has_exactly_one_switch(testbed, topology):
    for node in testbed.iter_nodes():
        sw = topology.switch_of(node.uid)
        assert topology.kind(sw) == "switch"


def test_same_cluster_small_is_same_switch(topology):
    # orion has 4 nodes -> single switch
    assert topology.switch_of("orion-1") == topology.switch_of("orion-4")


def test_large_cluster_spans_switches(topology):
    # graphene has 90 nodes -> 2 switches
    assert topology.switch_of("graphene-1") != topology.switch_of("graphene-90")


def test_nodes_on_switch_partition_cluster(testbed, topology):
    cluster = testbed.cluster("graphene")
    switches = {topology.switch_of(n.uid) for n in cluster.nodes}
    members = []
    for sw in switches:
        members.extend(n for n in topology.graph.neighbors(sw)
                       if topology.kind(n) == "node")
    assert sorted(members) == sorted(n.uid for n in cluster.nodes)


def test_intra_switch_path_is_two_hops(topology):
    assert len(nx.shortest_path(topology.graph, "orion-1", "orion-2")) - 1 == 2


def test_cross_site_path_traverses_routers(topology):
    path = nx.shortest_path(topology.graph, "graphene-1", "paravance-1")
    kinds = [topology.kind(x) for x in path]
    assert kinds[0] == "node" and kinds[-1] == "node"
    assert "router" in kinds
    assert kinds.count("router") == 2  # nancy gw + rennes gw


def test_graph_is_connected(topology):
    assert nx.is_connected(topology.graph)


def test_switch_of_router_raises(topology):
    with pytest.raises(KeyError):
        topology.switch_of("gw-nancy")


def test_topology_deterministic():
    t = build_grid5000()
    a = build_topology(t)
    b = build_topology(t)
    assert sorted(a.graph.nodes) == sorted(b.graph.nodes)
    assert sorted(map(tuple, map(sorted, a.graph.edges))) == sorted(
        map(tuple, map(sorted, b.graph.edges))
    )
