"""KaVLAN: network isolation through VLAN reconfiguration.

Slide 8 describes four network configurations:

* **default VLAN** — routing between Grid'5000 sites (every node reachable);
* **local, isolated VLAN** — only accessible through an SSH gateway
  connected to both networks;
* **routed VLAN** — separate level-2 network, reachable through routing;
* **global VLAN** — all nodes connected at level 2 across sites, no routing.

The manager allocates VLANs from per-site pools, moves nodes between them
by reconfiguring switch ports ("almost no overhead" — a few seconds per
switch), and answers reachability queries that the *kavlan* test family
verifies end to end.  A site under the ``KAVLAN_MISCONFIG`` fault applies
port changes that silently do not take effect: nodes remain on the default
VLAN, which breaks the isolation contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..faults.services import ServiceHealth
from ..testbed.topology import NetworkTopology
from ..util.errors import VlanError
from ..util.events import Simulator

__all__ = ["VlanType", "Vlan", "KavlanManager", "RECONFIG_S_PER_SWITCH"]

#: Switch reconfiguration time per involved switch ("almost no overhead").
RECONFIG_S_PER_SWITCH = 4.0

#: Per-site pool sizes (the real testbed has 3 local + 3 routed per site
#: and a handful of global VLANs).
_POOL = {"local": 3, "routed": 3, "global": 1}


class VlanType(enum.Enum):
    DEFAULT = "default"
    LOCAL = "local"
    ROUTED = "routed"
    GLOBAL = "global"


@dataclass(eq=False)
class Vlan:
    vlan_id: int
    type: VlanType
    site: str  # owning site ("" for the default VLAN)
    #: Nodes whose switch ports were *requested* to join this VLAN.
    requested: set[str] = field(default_factory=set)
    #: Nodes whose ports were *actually* reconfigured (≠ requested when the
    #: site's KaVLAN is misconfigured).
    applied: set[str] = field(default_factory=set)
    released: bool = False


class KavlanManager:
    """Allocate VLANs and reconfigure node ports."""

    def __init__(self, sim: Simulator, topology: NetworkTopology,
                 services: ServiceHealth, sites: list[str]):
        self.sim = sim
        self.topology = topology
        self.services = services
        self.default_vlan = Vlan(vlan_id=100, type=VlanType.DEFAULT, site="")
        self._vlans: list[Vlan] = [self.default_vlan]
        self._pools: dict[tuple[str, VlanType], int] = {}
        for site in sites:
            self._pools[(site, VlanType.LOCAL)] = _POOL["local"]
            self._pools[(site, VlanType.ROUTED)] = _POOL["routed"]
            self._pools[(site, VlanType.GLOBAL)] = _POOL["global"]
        self._next_id = 101
        #: node uid -> VLAN it is actually on (absent = default VLAN).
        self._membership: dict[str, Vlan] = {}

    # -- allocation -------------------------------------------------------------

    def allocate(self, type: VlanType, site: str) -> Vlan:
        if type == VlanType.DEFAULT:
            raise VlanError("the default VLAN is not allocatable")
        key = (site, type)
        if key not in self._pools:
            raise VlanError(f"unknown site: {site}")
        if self._pools[key] <= 0:
            raise VlanError(f"no {type.value} VLAN left on {site}")
        self._pools[key] -= 1
        vlan = Vlan(vlan_id=self._next_id, type=type, site=site)
        self._next_id += 1
        self._vlans.append(vlan)
        return vlan

    def release(self, vlan: Vlan):
        """Process generator: move members back to default and free the VLAN."""
        if vlan.type == VlanType.DEFAULT:
            raise VlanError("cannot release the default VLAN")
        if vlan.released:
            raise VlanError(f"vlan {vlan.vlan_id} already released")
        yield from self.set_nodes(vlan, [])
        vlan.released = True
        self._pools[(vlan.site, vlan.type)] += 1

    # -- reconfiguration ----------------------------------------------------------

    def set_nodes(self, vlan: Vlan, node_uids: list[str]):
        """Process generator: make ``node_uids`` the members of ``vlan``.

        Takes ``RECONFIG_S_PER_SWITCH`` per switch touched.  On a site with
        broken KaVLAN the commands are accepted but port changes are lost.
        """
        if vlan.released:
            raise VlanError(f"vlan {vlan.vlan_id} is released")
        target = set(node_uids)
        current = vlan.requested
        moved = (target - current) | (current - target)
        switches = {self.topology.switch_of(u) for u in moved}
        if switches:
            yield self.sim.timeout(RECONFIG_S_PER_SWITCH * len(switches))
        vlan.requested = target
        broken = self.services.kavlan_broken
        actually_applied = set()
        for uid in moved:
            site = self.topology.site_of(uid)
            if site in broken:
                continue  # silently lost: node stays where it was
            if uid in target:
                self._membership[uid] = vlan
                actually_applied.add(uid)
            elif self._membership.get(uid) is vlan:
                del self._membership[uid]
        vlan.applied = {u for u in target
                        if self._membership.get(u) is vlan}
        return vlan.applied

    def vlan_of(self, node_uid: str) -> Vlan:
        return self._membership.get(node_uid, self.default_vlan)

    # -- reachability ----------------------------------------------------------------

    def reachable(self, a: str, b: str, via_gateway: bool = False) -> bool:
        """Can ``a`` open a TCP connection to ``b``?

        Default<->default and routed<->anything-routable go through; a local
        VLAN is sealed except through its SSH gateway (``via_gateway``).
        """
        if a == b:
            return True
        va, vb = self.vlan_of(a), self.vlan_of(b)
        if va is vb:
            return True  # same L2 segment (incl. both on default)
        for near, far in ((va, vb), (vb, va)):
            if near.type == VlanType.LOCAL or far.type == VlanType.LOCAL:
                # local VLANs: no routing in or out, gateway only
                return via_gateway
        if VlanType.GLOBAL in (va.type, vb.type):
            # a global VLAN is its own L2 world; no routing to other VLANs
            return False
        # default <-> routed and routed <-> routed are routed
        return True

    def isolation_violations(self, vlan: Vlan, probes: list[str]) -> list[tuple[str, str]]:
        """Pairs (member, probe) that can talk although they should not.

        ``probes`` are nodes outside the VLAN; for a LOCAL vlan any
        connectivity without the gateway is a violation.
        """
        if vlan.type != VlanType.LOCAL:
            raise VlanError("isolation check is defined for local VLANs")
        violations = []
        for member in sorted(vlan.requested):
            for probe in probes:
                if probe in vlan.requested:
                    continue
                if self.reachable(member, probe, via_gateway=False):
                    violations.append((member, probe))
        return violations
