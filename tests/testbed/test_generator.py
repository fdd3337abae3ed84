"""Tests pinning the paper-exact synthetic inventory (slide 6 / slide 21)."""

import pytest

from repro.testbed import CLUSTER_SPECS, SITE_NAMES, build_grid5000
from repro.testbed.generator import ClusterSpec


def test_paper_inventory_sites(testbed):
    assert testbed.site_count == 8


def test_paper_inventory_clusters(testbed):
    assert testbed.cluster_count == 32


def test_paper_inventory_nodes(testbed):
    assert testbed.node_count == 894


def test_paper_inventory_cores(testbed):
    assert testbed.total_cores == 8490


def test_backbone_is_10gbps(testbed):
    assert testbed.backbone_gbps == 10.0


def test_dell_cluster_count_matches_coverage_table(testbed):
    assert sum(1 for c in testbed.iter_clusters() if c.is_dell) == 18


def test_infiniband_cluster_count_matches_coverage_table(testbed):
    assert sum(1 for c in testbed.iter_clusters() if c.has_infiniband) == 12


def test_disk_testable_cluster_count_matches_coverage_table(testbed):
    assert sum(1 for c in testbed.iter_clusters() if c.disk_testable) == 9


def test_all_site_names_present(testbed):
    assert tuple(s.uid for s in testbed.sites) == SITE_NAMES


def test_every_site_has_clusters(testbed):
    for site in testbed.sites:
        assert site.clusters, f"site {site.uid} is empty"


def test_node_uids_unique(testbed):
    uids = [n.uid for n in testbed.iter_nodes()]
    assert len(uids) == len(set(uids))


def test_node_uid_format(testbed):
    for node in testbed.iter_nodes():
        cluster, _, num = node.uid.rpartition("-")
        assert cluster == node.cluster
        assert num.isdigit() and int(num) >= 1


def test_macs_unique_across_testbed(testbed):
    macs = [nic.mac for n in testbed.iter_nodes() for nic in n.nics]
    assert len(macs) == len(set(macs))


def test_serials_unique(testbed):
    serials = [n.serial for n in testbed.iter_nodes()]
    assert len(serials) == len(set(serials))


def test_cluster_nodes_homogeneous(testbed):
    for cluster in testbed.iter_clusters():
        first = cluster.nodes[0]
        for node in cluster.nodes:
            assert node.cpu == first.cpu
            assert node.ram_gb == first.ram_gb
            assert len(node.disks) == len(first.disks)
            assert [d.model for d in node.disks] == [d.model for d in first.disks]


def test_total_cores_consistent_with_cpu_spec(testbed):
    for node in testbed.iter_nodes():
        assert node.total_cores == node.cpu_count * node.cpu.cores


def test_pdu_ports_within_range_and_unique_per_pdu(testbed):
    seen = set()
    for node in testbed.iter_nodes():
        key = (node.pdu.pdu_uid, node.pdu.port)
        assert key not in seen, f"PDU port reused: {key}"
        seen.add(key)
        assert 1 <= node.pdu.port <= 24


def test_gpu_clusters_have_gpu_spec(testbed):
    gpu_clusters = [c for c in testbed.iter_clusters()
                    if c.nodes[0].gpu is not None]
    assert {c.uid for c in gpu_clusters} == {"adonis", "orion", "grele"}
    for c in gpu_clusters:
        for n in c.nodes:
            assert n.gpu is not None and n.gpu.count >= 1


def test_ib_nodes_have_guid(testbed):
    for cluster in testbed.iter_clusters():
        if cluster.has_infiniband:
            guids = {n.infiniband.guid for n in cluster.nodes}
            assert len(guids) == cluster.node_count


def test_build_deterministic():
    a = build_grid5000()
    b = build_grid5000()
    assert a.to_doc() == b.to_doc()


def test_lookup_node(testbed):
    node = testbed.node("graphene-12")
    assert node.cluster == "graphene"
    assert node.site == "nancy"


def test_lookup_unknown_node_raises(testbed):
    with pytest.raises(KeyError):
        testbed.node("nonexistent-1")
    with pytest.raises(KeyError):
        testbed.node("graphene-9999")


def test_lookup_unknown_cluster_and_site(testbed):
    with pytest.raises(KeyError):
        testbed.cluster("nope")
    with pytest.raises(KeyError):
        testbed.site("nope")


def test_custom_spec_subset_builds():
    spec = [s for s in CLUSTER_SPECS if s.site == "nancy"]
    t = build_grid5000(spec)
    assert t.cluster_count == 6
    assert t.node_count == sum(s.nodes for s in spec)


def test_single_custom_cluster():
    spec = ClusterSpec(
        "nancy", "toy", 3, "Intel Xeon E5-2620", 2, 32, "dell", "Dell R630", 2016,
        ("Intel X710 10-Gigabit",), ("MG03ACA100",),
    )
    t = build_grid5000([spec])
    assert t.node_count == 3
    assert t.total_cores == 3 * 12
    assert t.cluster("toy").is_dell


def test_boot_times_positive(testbed):
    for c in testbed.iter_clusters():
        assert c.boot_time_s > 0
