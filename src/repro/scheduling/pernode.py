"""Per-node scheduling variant — the paper's closing open question.

Slide 23: *"Job scheduling: requiring the availability of all nodes of a
cluster is not very realistic.  Move to per-node scheduling?"*

:class:`PerNodeVariant` wraps a hardware-centric family (multireboot,
paralleldeploy, multideploy) into a software-centric one that exercises
**one node per run**, rotating through the cluster and skipping the nodes
that are down or reserved for the run's walltime.  Any single free node
suffices, so runs happen far more often — at the cost of never observing
whole-cluster behaviour (chain broadcast at scale, simultaneous boots) and
needing many runs to cover a cluster.  The A1 ablation bench quantifies
this trade-off.

Availability is probed through the wrapping
:class:`~repro.scheduling.launcher.ExternalScheduler`, whose free-node
counts ride the Gantt availability profile (one indexed query per target
set) rather than per-node timeline scans — per-node cells stay cheap even
on a 10k-node park.
"""

from __future__ import annotations

from typing import Any

from ..checksuite.base import CheckContext, CheckFamily, Finding
from ..checksuite.deploy_checks import _dedupe, _deploy_findings
from ..faults.catalog import FaultKind
from ..kadeploy.images import STD_ENV
from ..oar.request import Comparison, PropExpr

__all__ = ["PerNodeVariant"]


class PerNodeVariant(CheckFamily):
    """Single-node rewrite of a hardware-centric family."""

    kind = "software"
    nodes_needed = 1
    walltime_s = 3600.0

    def __init__(self, base: CheckFamily):
        if base.kind != "hardware":
            raise ValueError(f"{base.name} is not a hardware-centric family")
        self.base = base
        self.name = f"{base.name}-pernode"
        #: cluster -> index of the next node to test (rotation state).
        self._cursor: dict[str, int] = {}

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()]

    def target(self, ctx: CheckContext, outcome) -> PropExpr:
        """The cluster's first node, in rotation order from the cursor, that
        is alive and free for the whole walltime (the cursor's own node
        when none is), recorded as ``node``; the cursor moves past it."""
        cluster = ctx.testbed.cluster(outcome.config["cluster"])
        nodes = cluster.nodes
        cursor = self._cursor.get(cluster.uid, 0) % len(nodes)
        gantt, now = ctx.oar.gantt, ctx.sim.now
        candidates = gantt.mask_for(n.uid for n in nodes) & ctx.oar.machines.alive_mask
        free = gantt.profile_free_mask(candidates, now, now + self.walltime_s)
        rotation = (i % len(nodes) for i in range(cursor, cursor + len(nodes)))
        idx = next((i for i in rotation if free >> gantt.bit(nodes[i].uid) & 1), cursor)
        self._cursor[cluster.uid] = idx + 1
        node_uid = nodes[idx].uid
        outcome.config = dict(outcome.config, node=node_uid)
        return Comparison("network_address", "=",
                          f"{node_uid}.{cluster.site}.grid5000.fr")

    def check(self, ctx: CheckContext, outcome, job):
        cluster, node_uid = outcome.config["cluster"], outcome.config["node"]
        mean_boot = ctx.testbed.cluster(cluster).boot_time_s
        rounds = getattr(self.base, "rounds", 1)
        if self.base.name == "multireboot":
            for _ in range(rounds):
                start = ctx.sim.now
                up = yield ctx.sim.process(ctx.kadeploy.reboot([node_uid]))
                if not up[node_uid]:
                    outcome.findings.append(self._flaky_finding(node_uid))
                elif ctx.sim.now - start > mean_boot * 1.45 + 60.0:
                    outcome.findings.append(self._race_finding(cluster))
        else:  # paralleldeploy / multideploy, one node at a time
            for _ in range(rounds):
                start = ctx.sim.now
                result = yield ctx.sim.process(
                    ctx.kadeploy.deploy([node_uid], STD_ENV))
                outcome.findings.extend(
                    _deploy_findings(result, cluster, STD_ENV,
                                     degraded_threshold=1.0))
                if ctx.sim.now - start > mean_boot * 2.4 + 180.0:
                    outcome.findings.append(self._race_finding(cluster))
        outcome.findings = _dedupe(outcome.findings)

    @staticmethod
    def _flaky_finding(node_uid: str) -> Finding:
        return Finding(FaultKind.RANDOM_REBOOTS, node_uid,
                       "node failed to come back from a reboot")

    @staticmethod
    def _race_finding(cluster: str) -> Finding:
        return Finding(FaultKind.KERNEL_BOOT_RACE, cluster,
                       "boot abnormally slow on this node")
