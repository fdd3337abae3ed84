"""Specific-hardware families: mpigraph (Infiniband) and disk.

Slide 21: "Specific hardware: Infiniband, hard disk drives (mpigraph,
disk)".  The slide-22 OFED snippet is precisely what the mpigraph family
trips over: applications failing to start over Infiniband.
"""

from __future__ import annotations

from typing import Any

from ..faults.catalog import FaultKind
from ..nodes.acquisition import hdparm, smartctl
from ..nodes.machine import _DISK_BASE_MBPS
from .base import CheckContext, CheckFamily, Finding

__all__ = ["MpigraphCheck", "DiskCheck"]


class MpigraphCheck(CheckFamily):
    """Run an MPI bandwidth mesh over Infiniband on two reserved nodes."""

    name = "mpigraph"
    kind = "software"
    walltime_s = 1800.0
    nodes_needed = 2

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()
                if c.has_infiniband]

    def check(self, ctx: CheckContext, outcome, job):
        yield ctx.sim.timeout(60.0)  # MPI setup
        usable = []
        for uid in job.assignment:
            ib = ctx.machines[uid].actual.infiniband
            if ib is None or not ib.stack_ok:
                outcome.findings.append(Finding(
                    FaultKind.IB_OFED_FAILURE, uid,
                    "OFED stack down: MPI fails to start over Infiniband"))
            else:
                usable.append(uid)
        if len(usable) == 2:
            yield ctx.sim.timeout(300.0)  # the bandwidth mesh itself
            rate = min(ctx.machines[u].actual.infiniband.rate_gbps
                       for u in usable)
            documented = ctx.refapi.node(usable[0]).infiniband.rate_gbps
            if rate < documented:
                outcome.findings.append(Finding(
                    FaultKind.IB_OFED_FAILURE, usable[0],
                    f"IB bandwidth {rate} Gbps below documented {documented}"))


class DiskCheck(CheckFamily):
    """Measure sequential bandwidth of every drive of a reserved node and
    compare with what the description implies; classify the cause through
    hdparm/smartctl (cache setting, firmware version, dead drive)."""

    name = "disk"
    kind = "software"
    walltime_s = 3600.0
    nodes_needed = 1
    #: Written volume per drive for the bandwidth measurement, MB.
    volume_mb = 4096.0
    tolerance = 0.85

    def configurations(self, testbed) -> list[dict[str, Any]]:
        return [{"cluster": c.uid} for c in testbed.iter_clusters()
                if c.disk_testable]

    def check(self, ctx: CheckContext, outcome, job):
        cluster = outcome.config["cluster"]
        uid = job.assignment[0]
        machine = ctx.machines[uid]
        desc = ctx.refapi.node(uid)
        for disk_desc in desc.disks:
            expected = self._expected_mbps(disk_desc)
            measured = machine.disk_bandwidth_mbps(disk_desc.device)
            yield ctx.sim.timeout(
                self.volume_mb / max(measured, 20.0) + 10.0)
            findings = self._classify(machine, uid, cluster, disk_desc,
                                      measured, expected)
            # The per-drive performance measurement is a safety net for
            # causes the configuration comparison cannot explain.
            if not findings and measured < expected * self.tolerance:
                findings.append(Finding(
                    None, uid,
                    f"{disk_desc.device}: {measured:.0f} MB/s below "
                    f"expected {expected:.0f} MB/s, cause unknown"))
            outcome.findings.extend(findings)

    @staticmethod
    def _expected_mbps(disk_desc) -> float:
        expected = _DISK_BASE_MBPS[disk_desc.storage_type]
        if not disk_desc.write_cache:
            expected *= 0.45
        if not disk_desc.read_ahead:
            expected *= 0.85
        return expected

    @staticmethod
    def _classify(machine, uid: str, cluster: str, disk_desc,
                  measured: float, expected: float) -> list[Finding]:
        """Compare the drive's configuration with its description (the real
        bug classes: cache settings, firmware skew, dead drive)."""
        device = disk_desc.device
        health = smartctl(machine.actual, device)
        if health["smart_status"] != "PASSED" or measured == 0.0:
            return [Finding(FaultKind.DISK_DEAD, uid,
                            f"{device}: drive failed (SMART "
                            f"{health['smart_status']}, {measured:.0f} MB/s)")]
        drive = hdparm(machine.actual, device)
        findings = []
        if disk_desc.write_cache and drive["write_cache"] == "disabled":
            findings.append(Finding(
                FaultKind.DISK_WRITE_CACHE, uid,
                f"{device}: write cache disabled "
                f"({measured:.0f} MB/s, expected {expected:.0f})"))
        if disk_desc.read_ahead and drive["read_ahead"] == "off":
            findings.append(Finding(
                FaultKind.DISK_READ_AHEAD, uid,
                f"{device}: read-ahead disabled"))
        if drive["firmware"] != disk_desc.firmware:
            findings.append(Finding(
                FaultKind.DISK_FIRMWARE_SKEW, cluster,
                f"{uid} {device}: firmware {drive['firmware']} differs from "
                f"documented {disk_desc.firmware} "
                f"({measured:.0f} MB/s, expected {expected:.0f})"))
        return findings
