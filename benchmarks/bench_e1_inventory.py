"""E1 — slide 6 inventory: 8 sites, 32 clusters, 894 nodes, 8490 cores.

Regenerates the testbed description and reprints the inventory table; the
benchmark measures full description generation + topology derivation.
The asserted figures land in ``benchmarks/results/BENCH_e1_inventory.json``.
"""

from repro.testbed import build_grid5000, build_topology

from conftest import paper_row, print_table
from perf import write_results


def bench_e1_inventory(benchmark):
    testbed = benchmark(build_grid5000)
    topology = build_topology(testbed)
    rows = [
        paper_row("sites", 8, testbed.site_count),
        paper_row("clusters", 32, testbed.cluster_count),
        paper_row("nodes", 894, testbed.node_count),
        paper_row("cores", 8490, testbed.total_cores),
        paper_row("backbone (Gbps)", 10, testbed.backbone_gbps),
        paper_row("Dell clusters (dellbios cells)", 18,
                  sum(1 for c in testbed.iter_clusters() if c.is_dell)),
        paper_row("Infiniband clusters (mpigraph cells)", 12,
                  sum(1 for c in testbed.iter_clusters() if c.has_infiniband)),
        paper_row("network: ToR switches", "-", topology.switch_count),
        paper_row("network: site routers", 8, topology.router_count),
    ]
    print_table("E1: testbed inventory (slide 6)", rows)
    write_results("e1_inventory", {
        "sites": testbed.site_count,
        "clusters": testbed.cluster_count,
        "nodes": testbed.node_count,
        "cores": testbed.total_cores,
        "site_routers": topology.router_count,
    })
    assert testbed.site_count == 8
    assert testbed.cluster_count == 32
    assert testbed.node_count == 894
    assert testbed.total_cores == 8490
    assert topology.router_count == 8
