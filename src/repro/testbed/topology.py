"""Network topology of the testbed as a networkx graph.

Structure (matching the paper's slide-6/8 sketch):

* every node's primary NIC connects to a **top-of-rack switch** (one switch
  per 48 nodes per cluster);
* ToR switches uplink to the **site router**;
* site routers form a full-mesh **10 Gbps dedicated backbone**.

KaVLAN (:mod:`repro.kavlan`) reads it to reconfigure switch ports when
it moves nodes between VLANs.
"""

from __future__ import annotations

from typing import Iterator

import networkx as nx

from .description import TestbedDescription

__all__ = ["NetworkTopology", "build_topology"]

_SWITCH_PORTS = 48


class NetworkTopology:
    """Graph wrapper with testbed-aware queries.

    Graph node kinds (attribute ``kind``): ``node`` (compute node),
    ``switch`` (ToR), ``router`` (one per site).  Edges carry ``gbps``.
    """

    def __init__(self, graph: nx.Graph):
        self.graph = graph

    # -- inventory ---------------------------------------------------------

    def kind(self, name: str) -> str:
        return self.graph.nodes[name]["kind"]

    def iter_kind(self, kind: str) -> Iterator[str]:
        for name, data in self.graph.nodes(data=True):
            if data["kind"] == kind:
                yield name

    @property
    def switch_count(self) -> int:
        return sum(1 for _ in self.iter_kind("switch"))

    @property
    def router_count(self) -> int:
        return sum(1 for _ in self.iter_kind("router"))

    def switch_of(self, node_uid: str) -> str:
        """The ToR switch a compute node is wired to."""
        if self.graph.nodes[node_uid]["kind"] != "node":
            raise KeyError(f"{node_uid} is not a compute node")
        for neighbor in self.graph.neighbors(node_uid):
            if self.graph.nodes[neighbor]["kind"] == "switch":
                return neighbor
        raise KeyError(f"{node_uid} has no switch link")


def build_topology(testbed: TestbedDescription) -> NetworkTopology:
    """Derive the physical topology from the testbed description."""
    g = nx.Graph()
    routers = {}
    for site in testbed.sites:
        router = f"gw-{site.uid}"
        g.add_node(router, kind="router", site=site.uid)
        routers[site.uid] = router
    # Dedicated backbone: full mesh between site routers at backbone rate.
    site_ids = [s.uid for s in testbed.sites]
    for i, a in enumerate(site_ids):
        for b in site_ids[i + 1:]:
            g.add_edge(routers[a], routers[b], gbps=testbed.backbone_gbps)
    for cluster in testbed.iter_clusters():
        n_switches = (cluster.node_count + _SWITCH_PORTS - 1) // _SWITCH_PORTS
        switches = []
        for k in range(n_switches):
            sw = f"sw-{cluster.uid}-{k + 1}"
            uplink = max(10.0, cluster.nodes[0].primary_nic.rate_gbps)
            g.add_node(sw, kind="switch", site=cluster.site, cluster=cluster.uid)
            g.add_edge(sw, routers[cluster.site], gbps=uplink)
            switches.append(sw)
        for idx, node in enumerate(cluster.nodes):
            sw = switches[idx // _SWITCH_PORTS]
            g.add_node(node.uid, kind="node", site=cluster.site, cluster=cluster.uid)
            g.add_edge(node.uid, sw, gbps=node.primary_nic.rate_gbps)
    return NetworkTopology(g)
