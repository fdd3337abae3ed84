"""Infrastructure-service families: console, kavlan, kwapi.

Slide 21: "Other important services (console, kavlan, kwapi)".
"""

from __future__ import annotations

from typing import Any

from ..faults.catalog import FaultKind
from ..kavlan.manager import VlanType
from .base import CheckContext, CheckFamily, Finding

__all__ = ["ConsoleCheck", "KavlanCheck", "KwapiCheck"]


class ConsoleCheck(CheckFamily):
    """Open the serial console of every node of a cluster (out-of-band)."""

    name = "console"
    kind = "software"

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()]

    def check(self, ctx: CheckContext, outcome, job):
        cluster = ctx.testbed.cluster(outcome.config["cluster"])
        yield ctx.sim.timeout(2.0 * cluster.node_count)
        for node in cluster.nodes:
            if not ctx.machines[node.uid].actual.console_ok:
                outcome.findings.append(Finding(
                    FaultKind.CONSOLE_BROKEN, node.uid,
                    "no output on the serial console"))


class KavlanCheck(CheckFamily):
    """Allocate a local VLAN, move two reserved nodes into it, and verify
    the isolation contract end to end."""

    name = "kavlan"
    kind = "software"
    walltime_s = 1800.0
    nodes_needed = 2

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"site": s.uid} for s in testbed.sites]

    def check(self, ctx: CheckContext, outcome, job):
        site = outcome.config["site"]
        vlan = ctx.kavlan.allocate(VlanType.LOCAL, site)
        try:
            members = job.assignment
            yield ctx.sim.process(ctx.kavlan.set_nodes(vlan, members))
            probe = self._pick_probe(ctx, site, set(members))
            yield ctx.sim.timeout(60.0)  # connectivity probes
            if probe is not None:
                violations = ctx.kavlan.isolation_violations(vlan, [probe])
                if violations:
                    outcome.findings.append(Finding(
                        FaultKind.KAVLAN_MISCONFIG, site,
                        f"isolation violated: {violations[0][0]} can reach "
                        f"{violations[0][1]} outside the VLAN"))
            # members must still reach each other inside the VLAN
            if not ctx.kavlan.reachable(members[0], members[1]):
                outcome.findings.append(Finding(
                    FaultKind.KAVLAN_MISCONFIG, site,
                    "VLAN members cannot reach each other"))
        finally:
            yield ctx.sim.process(ctx.kavlan.release(vlan))

    @staticmethod
    def _pick_probe(ctx: CheckContext, site: str, exclude: set[str]):
        for cluster in ctx.testbed.site(site).clusters:
            for node in cluster.nodes:
                if node.uid not in exclude and ctx.machines[node.uid].available:
                    return node.uid
        return None


class KwapiCheck(CheckFamily):
    """Verify that the power-monitoring service tracks the load we apply
    to nodes we own — the check that catches swapped power cables."""

    name = "kwapi"
    kind = "software"
    walltime_s = 1800.0
    nodes_needed = 2
    #: Minimum expected watt increase when a node goes from idle to busy.
    min_delta_w = 40.0

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"site": s.uid} for s in testbed.sites]

    def check(self, ctx: CheckContext, outcome, job):
        site = outcome.config["site"]
        for uid in job.assignment:
            machine = ctx.machines[uid]
            machine.cpu_load = 0.0
            yield ctx.sim.timeout(30.0)
            idle = ctx.kwapi.node_power_watts(uid)
            machine.cpu_load = 1.0
            yield ctx.sim.timeout(30.0)
            busy = ctx.kwapi.node_power_watts(uid)
            machine.cpu_load = 0.75  # back to allocated-job load
            if idle is None or busy is None:
                outcome.findings.append(Finding(
                    FaultKind.KWAPI_DOWN, site,
                    f"no power measurement for {uid}"))
            elif busy - idle < self.min_delta_w:
                outcome.findings.append(Finding(
                    FaultKind.PDU_CABLE_SWAP, machine.cluster_uid,
                    f"{uid}: power did not follow load "
                    f"(idle {idle:.0f}W, busy {busy:.0f}W) — wiring?"))
