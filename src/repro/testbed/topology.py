"""Network topology of the testbed: which switch and site a node hangs off.

Structure (matching the paper's slide-6/8 sketch): every node's primary
NIC connects to a **top-of-rack switch**, one switch per 48 nodes of a
cluster, named ``sw-{cluster}-{k}`` and filled in ``cluster.nodes`` order;
the switches uplink to their site's router, and the site routers share
the dedicated backbone.

KaVLAN (:mod:`repro.kavlan`) reads a node's switch, because it
reconfigures that switch's port and pays per switch touched, and its
site, whose KaVLAN may be misconfigured.
"""

from __future__ import annotations

from .description import TestbedDescription

__all__ = ["NetworkTopology", "build_topology"]

_SWITCH_PORTS = 48


class NetworkTopology:
    """Per-node switch and site, plus the switch and router inventory."""

    __slots__ = ("_switch", "_site", "switch_count", "router_count")

    def __init__(self, switch: dict[str, str], site: dict[str, str],
                 switch_count: int, router_count: int) -> None:
        self._switch = switch
        self._site = site
        self.switch_count = switch_count
        self.router_count = router_count

    def switch_of(self, node_uid: str) -> str:
        """The ToR switch a compute node is wired to; ``KeyError`` for any
        name that is not a compute node."""
        return self._switch[node_uid]

    def site_of(self, node_uid: str) -> str:
        """The site a compute node belongs to."""
        return self._site[node_uid]


def build_topology(testbed: TestbedDescription) -> NetworkTopology:
    """Derive the physical topology from the testbed description."""
    switch: dict[str, str] = {}
    site: dict[str, str] = {}
    switch_count = 0
    for cluster in testbed.iter_clusters():
        name = ""
        for idx, node in enumerate(cluster.nodes):
            if idx % _SWITCH_PORTS == 0:
                switch_count += 1
                name = f"sw-{cluster.uid}-{idx // _SWITCH_PORTS + 1}"
            switch[node.uid] = name
            site[node.uid] = cluster.site
    return NetworkTopology(switch, site, switch_count, len(testbed.sites))
