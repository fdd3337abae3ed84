"""Description-correctness families: refapi, oarproperties, dellbios.

Slide 21: "Homogeneity and correctness of testbed description (refapi,
oarproperties, dellbios)".
"""

from __future__ import annotations

from typing import Any

from ..faults.catalog import FaultKind
from ..oar.database import properties_from_description
from .base import CheckContext, CheckFamily, Finding

__all__ = ["RefapiCheck", "OarPropertiesCheck", "DellBiosCheck"]


class RefapiCheck(CheckFamily):
    """Reserve one node per cluster and run g5k-checks against the
    Reference API; also verify the cluster's descriptions are homogeneous."""

    name = "refapi"
    kind = "software"
    walltime_s = 1800.0
    nodes_needed = 1

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()]

    def check(self, ctx: CheckContext, outcome, job):
        cluster = ctx.testbed.cluster(outcome.config["cluster"])
        # Homogeneity of the description itself (no hardware needed).
        reference = cluster.nodes[0]
        for node in cluster.nodes[1:]:
            if (node.cpu, node.ram_gb, [d.model for d in node.disks]) != (
                reference.cpu, reference.ram_gb, [d.model for d in reference.disks]
            ):
                outcome.findings.append(Finding(
                    None, node.uid,
                    "description not homogeneous with the rest of the cluster"))
        yield ctx.sim.timeout(120.0)  # acquisition pass on the node
        outcome.findings.extend(self.g5k_checks_findings(ctx, job.assignment[0]))


class OarPropertiesCheck(CheckFamily):
    """Compare every OAR database row with the Reference API derivation."""

    name = "oarproperties"
    kind = "software"

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()]

    def check(self, ctx: CheckContext, outcome, job):
        cluster = ctx.testbed.cluster(outcome.config["cluster"])
        yield ctx.sim.timeout(30.0)  # one SQL pass over the cluster's rows
        for node in cluster.nodes:
            served = ctx.oardb.properties(node.uid)
            expected = properties_from_description(ctx.refapi.node(node.uid))
            wrong = {k for k, v in expected.items() if served.get(k) != v}
            if wrong:
                outcome.findings.append(Finding(
                    FaultKind.OAR_PROPERTY_DRIFT, node.uid,
                    f"OAR properties diverge from Reference API: {sorted(wrong)}"))


class DellBiosCheck(CheckFamily):
    """BIOS version homogeneity on Dell clusters (out-of-band via the BMC)."""

    name = "dellbios"
    kind = "software"

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters() if c.is_dell]

    def check(self, ctx: CheckContext, outcome, job):
        cluster = ctx.testbed.cluster(outcome.config["cluster"])
        yield ctx.sim.timeout(3.0 * cluster.node_count)  # one BMC query per node
        versions: dict[str, list[str]] = {}
        for node in cluster.nodes:
            actual = ctx.machines[node.uid].actual.bios.version
            versions.setdefault(actual, []).append(node.uid)
        if len(versions) > 1:
            minority = min(versions.values(), key=len)
            outcome.findings.append(Finding(
                FaultKind.BIOS_VERSION_SKEW, cluster.uid,
                f"{len(versions)} BIOS versions coexist "
                f"(e.g. {minority[0]} differs from the majority)"))
        else:
            documented = cluster.nodes[0].bios.version
            (version,) = versions
            if version != documented:
                outcome.findings.append(Finding(
                    FaultKind.BIOS_VERSION_SKEW, cluster.uid,
                    f"BIOS {version} does not match documented {documented}"))
