"""Deployment-centric families.

Slide 21: "Provided system images (environments, stdenv)" and
"Reliability of key services (paralleldeploy, multireboot, multideploy)".
The first two are software-centric (one node per cluster); the last three
are hardware-centric (all nodes of a cluster — slide 16), which is what
makes their scheduling hard.
"""

from __future__ import annotations

from typing import Any

from ..faults.catalog import FaultKind
from ..kadeploy.images import REFERENCE_IMAGES, STD_ENV, image_by_name
from ..kadeploy.kascade import broadcast_time_s
from .base import CheckContext, CheckFamily, Finding

__all__ = [
    "EnvironmentsCheck",
    "StdenvCheck",
    "ParallelDeployCheck",
    "MultiDeployCheck",
    "MultiRebootCheck",
]


def _deploy_findings(result, cluster_uid: str, image: str,
                     degraded_threshold: float = 0.1) -> list[Finding]:
    """Shared classification of a DeploymentResult into findings.

    Widespread failures point at a systemic cause (a degraded deployment
    service), so individual nodes are not blamed; isolated failures are
    reported per node.
    """
    findings: list[Finding] = []
    systemic = (result.outcomes
                and (1 - result.success_rate) > degraded_threshold)
    for uid, phase in sorted(result.failed.items()):
        if phase == "sanity":
            findings.append(Finding(
                FaultKind.ENV_IMAGE_BROKEN, f"{image}@{cluster_uid}",
                f"{uid}: image deployed but the system is broken"))
        elif not systemic:
            findings.append(Finding(
                FaultKind.RANDOM_REBOOTS, uid,
                f"deployment failed in phase {phase}"))
    if systemic:
        findings.append(Finding(
            FaultKind.DEPLOY_DEGRADED, cluster_uid,
            f"deployment success rate only {result.success_rate:.0%}"))
    return findings


def _dedupe(findings: list[Finding]) -> list[Finding]:
    """The first finding of each (root-cause hint, target), in order."""
    first: dict[tuple, Finding] = {}
    for f in findings:
        first.setdefault((f.kind_hint, f.target), f)
    return list(first.values())


class EnvironmentsCheck(CheckFamily):
    """Deploy one reference image on one node of one cluster — the 448-cell
    matrix of slide 15 (14 images x 32 clusters)."""

    name = "environments"
    kind = "software"
    walltime_s = 3600.0
    nodes_needed = 1

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [
            {"image": img.name, "cluster": c.uid}
            for img in REFERENCE_IMAGES
            for c in testbed.iter_clusters()
        ]

    def check(self, ctx: CheckContext, outcome, job):
        cluster, image = outcome.config["cluster"], outcome.config["image"]
        result = yield ctx.sim.process(
            ctx.kadeploy.deploy(job.assignment, image))
        outcome.findings.extend(
            _deploy_findings(result, cluster, image, degraded_threshold=1.0))


class StdenvCheck(CheckFamily):
    """Deploy the std environment on one node and verify it thoroughly
    (sanity + g5k-checks, which also catches CPU/BIOS drift)."""

    name = "stdenv"
    kind = "software"
    walltime_s = 3600.0
    nodes_needed = 1

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()]

    def check(self, ctx: CheckContext, outcome, job):
        cluster = outcome.config["cluster"]
        result = yield ctx.sim.process(
            ctx.kadeploy.deploy(job.assignment, STD_ENV))
        outcome.findings.extend(
            _deploy_findings(result, cluster, STD_ENV, degraded_threshold=1.0))
        node_uid = job.assignment[0]
        if node_uid in result.deployed:
            yield ctx.sim.timeout(120.0)
            outcome.findings.extend(self.g5k_checks_findings(ctx, node_uid))


class _WholeClusterDeployBase(CheckFamily):
    """Shared implementation for hardware-centric deploy families."""

    kind = "hardware"
    walltime_s = 7200.0
    nodes_needed = "ALL"
    rounds = 1

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()]

    def _expected_round_s(self, ctx: CheckContext, cluster_uid: str,
                          n_nodes: int) -> float:
        cluster = ctx.testbed.cluster(cluster_uid)
        image = image_by_name(STD_ENV)
        nic_mbps = cluster.nodes[0].primary_nic.rate_gbps * 125.0
        return (1.6 * cluster.boot_time_s
                + broadcast_time_s(image.size_mb, n_nodes, nic_mbps, 100.0))

    def check(self, ctx: CheckContext, outcome, job):
        cluster = outcome.config["cluster"]
        durations = []
        for _ in range(self.rounds):
            start = ctx.sim.now
            result = yield ctx.sim.process(
                ctx.kadeploy.deploy(job.assignment, STD_ENV))
            durations.append(ctx.sim.now - start)
            outcome.findings.extend(_deploy_findings(result, cluster, STD_ENV))
        expected = self._expected_round_s(ctx, cluster, len(job.assignment))
        slowest = max(durations)
        if slowest > expected * 1.45 + 120.0:
            outcome.findings.append(Finding(
                FaultKind.KERNEL_BOOT_RACE, cluster,
                f"deployment took {slowest:.0f}s, expected ~{expected:.0f}s"))
        outcome.findings = _dedupe(outcome.findings)


class ParallelDeployCheck(_WholeClusterDeployBase):
    """One simultaneous whole-cluster deployment."""

    name = "paralleldeploy"
    rounds = 1


class MultiDeployCheck(_WholeClusterDeployBase):
    """Two back-to-back whole-cluster deployments (catches instabilities
    that only show on the second run, and boot-time anomalies)."""

    name = "multideploy"
    rounds = 2


class MultiRebootCheck(CheckFamily):
    """Reboot every node of a cluster three times; flag nodes that fail to
    come back and abnormal boot durations (the kernel-race bug)."""

    name = "multireboot"
    kind = "hardware"
    walltime_s = 7200.0
    nodes_needed = "ALL"
    rounds = 3

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()]

    def check(self, ctx: CheckContext, outcome, job):
        cluster = outcome.config["cluster"]
        mean_boot = ctx.testbed.cluster(cluster).boot_time_s
        flaky: set[str] = set()
        race_rounds = 0
        for _ in range(self.rounds):
            start = ctx.sim.now
            up = yield ctx.sim.process(ctx.kadeploy.reboot(job.assignment))
            duration = ctx.sim.now - start
            flaky.update(uid for uid, ok in up.items() if not ok)
            if duration > mean_boot * 1.45 + 60.0:
                race_rounds += 1
        for uid in sorted(flaky):
            outcome.findings.append(Finding(
                FaultKind.RANDOM_REBOOTS, uid,
                "node failed to come back from a reboot"))
        if race_rounds >= 2:
            outcome.findings.append(Finding(
                FaultKind.KERNEL_BOOT_RACE, cluster,
                f"{race_rounds}/{self.rounds} reboot rounds abnormally slow"))
