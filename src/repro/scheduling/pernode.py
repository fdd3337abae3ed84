"""Per-node scheduling variant — the paper's closing open question.

Slide 23: *"Job scheduling: requiring the availability of all nodes of a
cluster is not very realistic.  Move to per-node scheduling?"*

:class:`PerNodeVariant` wraps a hardware-centric family (multireboot,
paralleldeploy, multideploy) into a software-centric one that exercises
**one node per run**, rotating through the cluster.  Any single free node
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
from ..checksuite.deploy_checks import _deploy_findings
from ..faults.catalog import FaultKind
from ..kadeploy.images import STD_ENV

__all__ = ["PerNodeVariant"]


class PerNodeVariant(CheckFamily):
    """Single-node rewrite of a hardware-centric family."""

    def __init__(self, base: CheckFamily):
        if base.kind != "hardware":
            raise ValueError(f"{base.name} is not a hardware-centric family")
        self.base = base
        self.name = f"{base.name}-pernode"
        self.kind = "software"
        self.nodes_needed = 1
        self.walltime_s = 3600.0
        #: cluster -> index of the next node to test (rotation state).
        self._cursor: dict[str, int] = {}

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()]

    def _next_node(self, ctx: CheckContext, cluster: str) -> str:
        nodes = ctx.testbed.cluster(cluster).nodes
        idx = self._cursor.get(cluster, 0) % len(nodes)
        self._cursor[cluster] = idx + 1
        return nodes[idx].uid

    def run(self, ctx: CheckContext, config: dict[str, Any]):
        outcome = self._outcome(config)
        cluster = config["cluster"]
        node_uid = self._next_node(ctx, cluster)
        outcome.config = dict(config, node=node_uid)
        job = yield from self.reserve(
            ctx, f"network_address='{node_uid}.{ctx.testbed.cluster(cluster).site}"
                 ".grid5000.fr'/nodes=1,walltime=1")
        if job is None:
            outcome.resources_blocked = True
            outcome.passed = False
            return outcome
        try:
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
        finally:
            self.release(ctx, job)
        self._dedupe(outcome)
        outcome.passed = not outcome.findings
        return outcome

    @staticmethod
    def _flaky_finding(node_uid: str) -> Finding:
        return Finding(FaultKind.RANDOM_REBOOTS, node_uid,
                       "node failed to come back from a reboot")

    @staticmethod
    def _race_finding(cluster: str) -> Finding:
        return Finding(FaultKind.KERNEL_BOOT_RACE, cluster,
                       "boot abnormally slow on this node")

    @staticmethod
    def _dedupe(outcome) -> None:
        seen = set()
        unique = []
        for f in outcome.findings:
            key = (f.kind_hint, f.target)
            if key not in seen:
                seen.add(key)
                unique.append(f)
        outcome.findings = unique
