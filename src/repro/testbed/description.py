"""Resource descriptions: the schema of the Reference API.

The paper (slide 7) stresses that Grid'5000 describes all its resources —
nodes, network equipment, topology — in a *machine-parsable format (JSON)*
so that scripts (and OAR, and g5k-checks) can consume them.  This module
defines the dataclasses for those descriptions plus their ``to_doc`` JSON
rendering; :func:`repro.util.serialization.decode_dataclass` rebuilds an
equal object from a document.

A *description* is what the testbed claims about a resource.  The *actual*
hardware state of a simulated machine lives in :mod:`repro.nodes` and may
silently diverge from the description — that divergence is exactly what
g5k-checks (:mod:`repro.checks`) is designed to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional

__all__ = [
    "BiosSettings",
    "CpuSpec",
    "DiskSpec",
    "NicSpec",
    "InfinibandSpec",
    "GpuSpec",
    "PduPort",
    "NodeDescription",
    "ClusterDescription",
    "SiteDescription",
    "TestbedDescription",
]


@dataclass(frozen=True)
class BiosSettings:
    """BIOS-level knobs whose silent drift caused real bugs (slide 13).

    ``c_states`` / ``hyperthreading`` / ``turbo_boost`` toggles and the
    power profile all change measured performance by a few percent —
    enough to invalidate experiments without being obviously broken.
    """

    version: str = "1.0.0"
    c_states: bool = False
    hyperthreading: bool = False
    turbo_boost: bool = False
    power_profile: str = "performance"  # or "balanced", "powersave"

    def to_doc(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "c_states": self.c_states,
            "hyperthreading": self.hyperthreading,
            "turbo_boost": self.turbo_boost,
            "power_profile": self.power_profile,
        }


@dataclass(frozen=True)
class CpuSpec:
    """One CPU package (a node has ``NodeDescription.cpu_count`` of them)."""

    model: str
    vendor: str
    microarchitecture: str
    cores: int
    threads_per_core: int
    clock_ghz: float
    ht_capable: bool
    turbo_capable: bool

    def to_doc(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "vendor": self.vendor,
            "microarchitecture": self.microarchitecture,
            "cores": self.cores,
            "threads_per_core": self.threads_per_core,
            "clock_ghz": self.clock_ghz,
            "ht_capable": self.ht_capable,
            "turbo_capable": self.turbo_capable,
        }


@dataclass(frozen=True)
class DiskSpec:
    """One block device.

    ``firmware`` and the cache toggles reproduce the paper's real bugs:
    "different disk performance due to different disk firmware versions"
    and "disk drives configuration (R/W caching)".
    """

    device: str  # e.g. "sda"
    vendor: str
    model: str
    size_gb: int
    interface: str  # "SATA", "SAS", "NVMe"
    storage_type: str  # "HDD" or "SSD"
    firmware: str
    write_cache: bool = True
    read_ahead: bool = True

    def to_doc(self) -> dict[str, Any]:
        return {
            "device": self.device,
            "vendor": self.vendor,
            "model": self.model,
            "size_gb": self.size_gb,
            "interface": self.interface,
            "storage_type": self.storage_type,
            "firmware": self.firmware,
            "write_cache": self.write_cache,
            "read_ahead": self.read_ahead,
        }


@dataclass(frozen=True)
class NicSpec:
    """One Ethernet interface."""

    device: str  # e.g. "eth0"
    model: str
    driver: str
    rate_gbps: float
    mac: str
    mountable: bool = True  # wired to a switch and usable by experiments
    interface: str = "Ethernet"

    def to_doc(self) -> dict[str, Any]:
        return {
            "device": self.device,
            "model": self.model,
            "driver": self.driver,
            "rate_gbps": self.rate_gbps,
            "mac": self.mac,
            "mountable": self.mountable,
            "interface": self.interface,
        }


@dataclass(frozen=True)
class InfinibandSpec:
    """Infiniband HCA (exercised by the mpigraph test family)."""

    model: str
    rate_gbps: int  # 20 (DDR), 40 (QDR), 56 (FDR)
    guid: str

    def to_doc(self) -> dict[str, Any]:
        return {"model": self.model, "rate_gbps": self.rate_gbps, "guid": self.guid}


@dataclass(frozen=True)
class GpuSpec:
    """GPU accelerator (selectable via OAR's ``gpu='YES'`` property)."""

    model: str
    count: int
    memory_gb: int

    def to_doc(self) -> dict[str, Any]:
        return {"model": self.model, "count": self.count, "memory_gb": self.memory_gb}


@dataclass(frozen=True)
class PduPort:
    """Which PDU outlet powers the node.

    The kwapi power-monitoring service maps outlet measurements back to
    nodes through this wiring description; a cabling error here is the
    paper's "wrong measurements by testbed monitoring service" bug.
    """

    pdu_uid: str
    port: int

    def to_doc(self) -> dict[str, Any]:
        return {"pdu_uid": self.pdu_uid, "port": self.port}


@dataclass(frozen=True)
class NodeDescription:
    """Full description of one node, as published by the Reference API."""

    uid: str  # e.g. "graphene-12"
    cluster: str
    site: str
    cpu: CpuSpec
    cpu_count: int
    ram_gb: int
    disks: tuple[DiskSpec, ...]
    nics: tuple[NicSpec, ...]
    bios: BiosSettings
    pdu: PduPort
    infiniband: Optional[InfinibandSpec] = None
    gpu: Optional[GpuSpec] = None
    serial: str = ""
    console_enabled: bool = True

    @property
    def total_cores(self) -> int:
        return self.cpu_count * self.cpu.cores

    @property
    def primary_nic(self) -> NicSpec:
        return self.nics[0]

    @property
    def has_10g(self) -> bool:
        return any(n.rate_gbps >= 10 for n in self.nics)

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "uid": self.uid,
            "cluster": self.cluster,
            "site": self.site,
            "cpu": self.cpu.to_doc(),
            "cpu_count": self.cpu_count,
            "ram_gb": self.ram_gb,
            "disks": [d.to_doc() for d in self.disks],
            "nics": [n.to_doc() for n in self.nics],
            "bios": self.bios.to_doc(),
            "pdu": self.pdu.to_doc(),
            "serial": self.serial,
            "console_enabled": self.console_enabled,
            "infiniband": self.infiniband.to_doc() if self.infiniband else None,
            "gpu": self.gpu.to_doc() if self.gpu else None,
        }
        return doc


@dataclass
class ClusterDescription:
    """A homogeneous set of nodes bought together."""

    uid: str
    site: str
    vendor: str  # "dell", "hp", "bull", ...
    chassis_model: str
    vintage_year: int
    nodes: list[NodeDescription] = field(default_factory=list)
    boot_time_s: float = 180.0  # mean time for a full reboot
    queue: str = "default"

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return sum(n.total_cores for n in self.nodes)

    @property
    def has_infiniband(self) -> bool:
        return bool(self.nodes) and self.nodes[0].infiniband is not None

    @property
    def is_dell(self) -> bool:
        return self.vendor == "dell"

    @property
    def disk_testable(self) -> bool:
        """Clusters with at least one spare (non-system) disk per node."""
        return bool(self.nodes) and len(self.nodes[0].disks) >= 2

    def to_doc(self) -> dict[str, Any]:
        return {
            "uid": self.uid,
            "site": self.site,
            "vendor": self.vendor,
            "chassis_model": self.chassis_model,
            "vintage_year": self.vintage_year,
            "boot_time_s": self.boot_time_s,
            "queue": self.queue,
            "nodes": [n.to_doc() for n in self.nodes],
        }


@dataclass
class SiteDescription:
    """One geographic site with its clusters."""

    uid: str
    clusters: list[ClusterDescription] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return sum(c.node_count for c in self.clusters)

    @property
    def total_cores(self) -> int:
        return sum(c.total_cores for c in self.clusters)

    def to_doc(self) -> dict[str, Any]:
        return {"uid": self.uid, "clusters": [c.to_doc() for c in self.clusters]}


@dataclass
class TestbedDescription:
    """The whole testbed: what the Reference API publishes."""

    name: str
    backbone_gbps: float
    sites: list[SiteDescription] = field(default_factory=list)

    # -- aggregates (the slide-6 inventory) -----------------------------------

    @property
    def site_count(self) -> int:
        return len(self.sites)

    @property
    def cluster_count(self) -> int:
        return sum(len(s.clusters) for s in self.sites)

    @property
    def node_count(self) -> int:
        return sum(s.node_count for s in self.sites)

    @property
    def total_cores(self) -> int:
        return sum(s.total_cores for s in self.sites)

    # -- iteration / lookup ----------------------------------------------------

    def iter_clusters(self) -> Iterator[ClusterDescription]:
        for site in self.sites:
            yield from site.clusters

    def iter_nodes(self) -> Iterator[NodeDescription]:
        for cluster in self.iter_clusters():
            yield from cluster.nodes

    def site(self, uid: str) -> SiteDescription:
        for s in self.sites:
            if s.uid == uid:
                return s
        raise KeyError(f"unknown site: {uid}")

    def cluster(self, uid: str) -> ClusterDescription:
        for c in self.iter_clusters():
            if c.uid == uid:
                return c
        raise KeyError(f"unknown cluster: {uid}")

    def node(self, uid: str) -> NodeDescription:
        cluster_uid = uid.rsplit("-", 1)[0]
        try:
            cluster = self.cluster(cluster_uid)
        except KeyError:
            raise KeyError(f"unknown node: {uid}") from None
        for n in cluster.nodes:
            if n.uid == uid:
                return n
        raise KeyError(f"unknown node: {uid}")

    def copy(self) -> "TestbedDescription":
        """A copy with its own site and cluster objects and ``nodes`` lists.

        The frozen :class:`NodeDescription` objects are shared: every
        field of one is a frozen dataclass or a tuple, so the only way to
        change a node is :meth:`replace_node`, which writes to this copy's
        list alone.
        """
        return replace(self, sites=[
            replace(site, clusters=[
                replace(cluster, nodes=list(cluster.nodes))
                for cluster in site.clusters])
            for site in self.sites])

    def replace_node(self, node: NodeDescription) -> None:
        """Swap in an updated description for an existing node."""
        cluster = self.cluster(node.cluster)
        for i, n in enumerate(cluster.nodes):
            if n.uid == node.uid:
                cluster.nodes[i] = node
                return
        raise KeyError(f"unknown node: {node.uid}")

    def to_doc(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "backbone_gbps": self.backbone_gbps,
            "sites": [s.to_doc() for s in self.sites],
        }