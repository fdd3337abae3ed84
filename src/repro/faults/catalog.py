"""Fault catalog: every bug class the paper reports, as injectable faults.

Slide 13 and slide 22 list the real bugs the framework caught:

* different CPU settings (power management / C-states, hyperthreading,
  turbo boost) — :data:`FaultKind.CPU_CSTATES` etc.;
* disk drives configuration (R/W caching) — ``DISK_WRITE_CACHE`` /
  ``DISK_READ_AHEAD``;
* different disk performance due to different disk firmware versions —
  ``DISK_FIRMWARE_SKEW``;
* cabling issues ⇒ wrong measurements by the monitoring service —
  ``PDU_CABLE_SWAP``;
* a cluster decommissioned after random reboots — ``RANDOM_REBOOTS``;
* a Linux kernel race causing boot delays — ``KERNEL_BOOT_RACE``;
* an OFED-stack bug causing random failures to start — ``IB_OFED_FAILURE``;
* "various weak spots in the infrastructure and configuration problems" —
  the service-level kinds (flaky API, broken images, degraded deployment,
  KaVLAN misconfiguration, stale OAR properties...).

Each kind has an *apply* handler that mutates the simulated world (machine
hardware state or service health) and a *revert* handler used when an
operator fixes the corresponding bug.  A :class:`FaultInstance` records
ground truth so campaigns can score detection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..nodes.machine import MachinePark, SimulatedNode
from ..util.errors import FaultError
from .services import ServiceHealth

__all__ = [
    "FaultKind",
    "Severity",
    "FaultSpec",
    "FaultInstance",
    "FaultContext",
    "FAULT_SPECS",
    "TRANSPORT_FAULT_SPECS",
    "apply_fault",
    "revert_fault",
]


class Severity(enum.Enum):
    PERFORMANCE = "performance"  # silently skews measurements
    AVAILABILITY = "availability"  # breaks node/service availability
    CORRECTNESS = "correctness"  # wrong data served to users
    SERVICE = "service"  # degrades a testbed service
    TRANSPORT = "transport"  # degrades the service wire layer itself


class FaultKind(enum.Enum):
    # CPU / BIOS configuration drift (slide 13)
    CPU_CSTATES = "cpu-cstates"
    CPU_HYPERTHREADING = "cpu-hyperthreading"
    CPU_TURBO = "cpu-turbo"
    CPU_POWER_PROFILE = "cpu-power-profile"
    BIOS_VERSION_SKEW = "bios-version-skew"
    # Disks (slides 13 & 22)
    DISK_WRITE_CACHE = "disk-write-cache"
    DISK_READ_AHEAD = "disk-read-ahead"
    DISK_FIRMWARE_SKEW = "disk-firmware-skew"
    DISK_DEAD = "disk-dead"
    # Memory / NIC hardware
    RAM_DIMM_FAILED = "ram-dimm-failed"
    NIC_DOWNGRADE = "nic-downgrade"
    # Wiring (slide 13: "cabling issue -> wrong measurements")
    PDU_CABLE_SWAP = "pdu-cable-swap"
    # Infiniband (slide 22: OFED bug)
    IB_OFED_FAILURE = "ib-ofed-failure"
    # Stability (slide 22: random reboots, kernel race)
    RANDOM_REBOOTS = "random-reboots"
    KERNEL_BOOT_RACE = "kernel-boot-race"
    CONSOLE_BROKEN = "console-broken"
    # Services
    OAR_PROPERTY_DRIFT = "oar-property-drift"
    API_FLAKY = "api-flaky"
    CMDLINE_BROKEN = "cmdline-broken"
    ENV_IMAGE_BROKEN = "env-image-broken"
    DEPLOY_DEGRADED = "deploy-degraded"
    KAVLAN_MISCONFIG = "kavlan-misconfig"
    KWAPI_DOWN = "kwapi-down"
    # Service wire layer (scheduled by the chaos transport, not the
    # in-world injector — see TRANSPORT_FAULT_SPECS below)
    CONN_DROP = "conn-drop"
    LINE_GARBAGE = "line-garbage"
    LINE_SPLIT = "line-split"
    LINE_DUP = "line-dup"
    LINE_DELAY = "line-delay"


@dataclass(frozen=True)
class FaultSpec:
    """Static metadata for one fault kind."""

    kind: FaultKind
    severity: Severity
    #: Relative injection frequency (hardware drift dominates, as on the
    #: real testbed where heterogeneous aging hardware is the main source).
    weight: float
    #: Test families (slide 21 names) expected to be able to catch this.
    detectable_by: frozenset[str]
    description: str


FAULT_SPECS: dict[FaultKind, FaultSpec] = {
    s.kind: s
    for s in [
        FaultSpec(FaultKind.CPU_CSTATES, Severity.PERFORMANCE, 3.0,
                  frozenset({"refapi", "stdenv"}),
                  "C-states silently re-enabled after a BIOS reset"),
        FaultSpec(FaultKind.CPU_HYPERTHREADING, Severity.PERFORMANCE, 2.0,
                  frozenset({"refapi", "stdenv"}),
                  "hyperthreading toggled by a maintenance operation"),
        FaultSpec(FaultKind.CPU_TURBO, Severity.PERFORMANCE, 2.0,
                  frozenset({"refapi", "stdenv"}),
                  "turbo boost enabled, breaking run-to-run reproducibility"),
        FaultSpec(FaultKind.CPU_POWER_PROFILE, Severity.PERFORMANCE, 2.0,
                  frozenset({"refapi", "stdenv"}),
                  "BIOS power profile reset to 'balanced'"),
        FaultSpec(FaultKind.BIOS_VERSION_SKEW, Severity.PERFORMANCE, 2.0,
                  frozenset({"dellbios"}),
                  "some nodes run an older BIOS version than the rest"),
        FaultSpec(FaultKind.DISK_WRITE_CACHE, Severity.PERFORMANCE, 3.0,
                  frozenset({"disk", "refapi"}),
                  "drive write cache disabled after replacement"),
        FaultSpec(FaultKind.DISK_READ_AHEAD, Severity.PERFORMANCE, 1.5,
                  frozenset({"disk", "refapi"}),
                  "drive read-ahead disabled"),
        FaultSpec(FaultKind.DISK_FIRMWARE_SKEW, Severity.PERFORMANCE, 2.5,
                  frozenset({"disk", "refapi"}),
                  "replacement drives shipped with older firmware"),
        FaultSpec(FaultKind.DISK_DEAD, Severity.AVAILABILITY, 2.0,
                  frozenset({"disk", "refapi"}),
                  "drive failed outright"),
        FaultSpec(FaultKind.RAM_DIMM_FAILED, Severity.CORRECTNESS, 2.0,
                  frozenset({"refapi"}),
                  "a DIMM bank died; node has half its documented RAM"),
        FaultSpec(FaultKind.NIC_DOWNGRADE, Severity.PERFORMANCE, 2.0,
                  frozenset({"refapi"}),
                  "NIC negotiated 1 Gbps on a 10 Gbps port (bad cable)"),
        FaultSpec(FaultKind.PDU_CABLE_SWAP, Severity.CORRECTNESS, 1.5,
                  frozenset({"kwapi"}),
                  "two nodes' power cables swapped; kwapi reports the wrong node"),
        FaultSpec(FaultKind.IB_OFED_FAILURE, Severity.AVAILABILITY, 1.5,
                  frozenset({"mpigraph"}),
                  "OFED stack fails to start on boot"),
        FaultSpec(FaultKind.RANDOM_REBOOTS, Severity.AVAILABILITY, 1.0,
                  frozenset({"multireboot", "oarstate"}),
                  "node reboots spontaneously (failing PSU/mainboard)"),
        FaultSpec(FaultKind.KERNEL_BOOT_RACE, Severity.AVAILABILITY, 1.0,
                  frozenset({"multireboot", "multideploy"}),
                  "kernel race delays some boots by minutes"),
        FaultSpec(FaultKind.CONSOLE_BROKEN, Severity.SERVICE, 1.5,
                  frozenset({"console"}),
                  "serial console dead (misconfigured conman)"),
        FaultSpec(FaultKind.OAR_PROPERTY_DRIFT, Severity.CORRECTNESS, 2.0,
                  frozenset({"oarproperties"}),
                  "OAR database property no longer matches the Reference API"),
        FaultSpec(FaultKind.API_FLAKY, Severity.SERVICE, 1.5,
                  frozenset({"sidapi"}),
                  "site REST API intermittently returns errors"),
        FaultSpec(FaultKind.CMDLINE_BROKEN, Severity.SERVICE, 1.0,
                  frozenset({"cmdline"}),
                  "command-line tool broken by a partial upgrade"),
        FaultSpec(FaultKind.ENV_IMAGE_BROKEN, Severity.SERVICE, 2.0,
                  frozenset({"environments"}),
                  "a reference environment image fails on one cluster"),
        FaultSpec(FaultKind.DEPLOY_DEGRADED, Severity.SERVICE, 1.5,
                  frozenset({"paralleldeploy", "multideploy"}),
                  "deployment service degraded on one cluster"),
        FaultSpec(FaultKind.KAVLAN_MISCONFIG, Severity.SERVICE, 1.0,
                  frozenset({"kavlan"}),
                  "switch misconfiguration breaks VLAN isolation on a site"),
        FaultSpec(FaultKind.KWAPI_DOWN, Severity.SERVICE, 1.0,
                  frozenset({"kwapi"}),
                  "power monitoring stopped recording on a site"),
    ]
}


#: Wire-layer fault kinds, scheduled by the chaos transport
#: (:mod:`repro.service.chaos`) against the ``repro-sim-1`` protocol.
#: Deliberately a SEPARATE table: ``FaultInjector`` derives its default
#: kind tuple and RNG weight vector from :data:`FAULT_SPECS`, so folding
#: these in would shift every in-world fault draw and break the pinned
#: determinism goldens.  ``detectable_by`` names the recovery mechanism
#: expected to mask each fault end to end.
TRANSPORT_FAULT_SPECS: dict[FaultKind, FaultSpec] = {
    s.kind: s
    for s in [
        FaultSpec(FaultKind.CONN_DROP, Severity.TRANSPORT, 1.5,
                  frozenset({"resm"}),
                  "connection dropped mid-exchange (RESM resumes the run)"),
        FaultSpec(FaultKind.LINE_GARBAGE, Severity.TRANSPORT, 2.0,
                  frozenset({"err-recovery"}),
                  "garbage line injected into the stream (answered ERR)"),
        FaultSpec(FaultKind.LINE_SPLIT, Severity.TRANSPORT, 2.0,
                  frozenset({"err-recovery"}),
                  "one line torn into two partial lines"),
        FaultSpec(FaultKind.LINE_DUP, Severity.TRANSPORT, 2.0,
                  frozenset({"err-recovery"}),
                  "one line delivered twice"),
        FaultSpec(FaultKind.LINE_DELAY, Severity.TRANSPORT, 2.5,
                  frozenset({"heartbeat"}),
                  "line delivery stalled (heartbeat keeps the peer honest)"),
    ]
}


@dataclass(eq=False)  # identity semantics: two injections are never "equal"
class FaultInstance:
    """One injected fault: the ground truth a campaign scores against."""

    fault_id: int
    kind: FaultKind
    target: str  # node uid, cluster uid, site uid or "image@cluster"
    site: str
    cluster: Optional[str]
    injected_at: float
    details: dict[str, Any] = field(default_factory=dict)
    active: bool = True
    detected_at: Optional[float] = None
    detected_by: Optional[str] = None
    fixed_at: Optional[float] = None

    @property
    def severity(self) -> Severity:
        return FAULT_SPECS[self.kind].severity

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    def matches(self, kind: FaultKind, target: str) -> bool:
        return self.active and self.kind == kind and self.target == target


@dataclass
class FaultContext:
    """Everything fault handlers may mutate."""

    machines: MachinePark
    services: ServiceHealth
    #: Names of the reference environment images (for ENV_IMAGE_BROKEN).
    images: tuple[str, ...]
    #: cluster uid -> node uids (avoids re-deriving from machines each time).
    clusters: dict[str, list[str]] = field(default_factory=dict)
    sites: dict[str, list[str]] = field(default_factory=dict)  # site -> clusters

    @classmethod
    def build(cls, machines: MachinePark, services: ServiceHealth,
              images: tuple[str, ...]) -> "FaultContext":
        clusters: dict[str, list[str]] = {}
        sites: dict[str, list[str]] = {}
        for m in machines.machines.values():
            clusters.setdefault(m.cluster_uid, []).append(m.uid)
            if m.cluster_uid not in sites.setdefault(m.site_uid, []):
                sites[m.site_uid].append(m.cluster_uid)
        return cls(machines=machines, services=services, images=images,
                   clusters=clusters, sites=sites)

    def pick_node(self, rng: np.random.Generator,
                  predicate: Optional[Callable[[SimulatedNode], bool]] = None,
                  ) -> Optional[SimulatedNode]:
        uids = sorted(self.machines.machines)
        order = rng.permutation(len(uids))
        for i in order:
            node = self.machines[uids[int(i)]]
            if predicate is None or predicate(node):
                return node
        return None

    def pick_cluster(self, rng: np.random.Generator,
                     predicate: Optional[Callable[[str], bool]] = None) -> Optional[str]:
        names = sorted(self.clusters)
        order = rng.permutation(len(names))
        for i in order:
            if predicate is None or predicate(names[int(i)]):
                return names[int(i)]
        return None

    def pick_site(self, rng: np.random.Generator,
                  predicate: Optional[Callable[[str], bool]] = None) -> Optional[str]:
        names = sorted(self.sites)
        order = rng.permutation(len(names))
        for i in order:
            if predicate is None or predicate(names[int(i)]):
                return names[int(i)]
        return None

    def site_of_cluster(self, cluster: str) -> str:
        return self.machines[self.clusters[cluster][0]].site_uid


# --------------------------------------------------------------------------
# apply / revert handlers
# --------------------------------------------------------------------------

_Handler = Callable[[FaultContext, np.random.Generator], Optional[tuple[str, dict]]]


def _bios_flag_handler(attr: str, value: bool | str,
                       capability: Optional[str] = None) -> _Handler:
    def apply(ctx: FaultContext, rng: np.random.Generator):
        def eligible(node: SimulatedNode) -> bool:
            if getattr(node.actual.bios, attr) == value:
                return False
            if capability and not getattr(node.description.cpu, capability):
                return False
            return True

        node = ctx.pick_node(rng, eligible)
        if node is None:
            return None
        old = getattr(node.actual.bios, attr)
        setattr(node.actual.bios, attr, value)
        return node.uid, {"attr": attr, "old": old, "new": value}

    return apply


def _apply_bios_version_skew(ctx: FaultContext, rng: np.random.Generator):
    cluster = ctx.pick_cluster(rng, lambda c: len(ctx.clusters[c]) >= 4)
    if cluster is None:
        return None
    uids = ctx.clusters[cluster]
    count = max(1, int(len(uids) * float(rng.uniform(0.1, 0.4))))
    chosen = [uids[int(i)] for i in rng.choice(len(uids), size=count, replace=False)]
    old = {}
    for uid in chosen:
        node = ctx.machines[uid]
        old[uid] = node.actual.bios.version
        node.actual.bios.version = "0.9.7"  # stale vendor release
    return cluster, {"nodes": chosen, "old_versions": old}


def _disk_flag_handler(attr: str) -> _Handler:
    def apply(ctx: FaultContext, rng: np.random.Generator):
        node = ctx.pick_node(rng, lambda n: any(getattr(d, attr) for d in n.actual.disks))
        if node is None:
            return None
        disks = [d for d in node.actual.disks if getattr(d, attr)]
        disk = disks[int(rng.integers(len(disks)))]
        setattr(disk, attr, False)
        return node.uid, {"device": disk.device, "attr": attr}

    return apply


def _apply_disk_firmware_skew(ctx: FaultContext, rng: np.random.Generator):
    from ..testbed.catalog import disk_model

    def eligible(cluster: str) -> bool:
        node = ctx.machines[ctx.clusters[cluster][0]]
        return any(len(disk_model(d.model).firmware_versions) > 1
                   for d in node.actual.disks)

    cluster = ctx.pick_cluster(rng, eligible)
    if cluster is None:
        return None
    uids = ctx.clusters[cluster]
    sample = ctx.machines[uids[0]]
    devices = [d.device for d in sample.actual.disks
               if len(disk_model(d.model).firmware_versions) > 1]
    device = devices[int(rng.integers(len(devices)))]
    count = max(1, int(len(uids) * float(rng.uniform(0.1, 0.3))))
    chosen = [uids[int(i)] for i in rng.choice(len(uids), size=count, replace=False)]
    old = {}
    for uid in chosen:
        disk = ctx.machines[uid].actual.find_disk(device)
        lineage = disk_model(disk.model).firmware_versions
        old[uid] = disk.firmware
        disk.firmware = lineage[0]  # oldest release
    return cluster, {"nodes": chosen, "device": device, "old_firmware": old}


def _apply_disk_dead(ctx: FaultContext, rng: np.random.Generator):
    node = ctx.pick_node(rng, lambda n: any(d.healthy for d in n.actual.disks))
    if node is None:
        return None
    disks = [d for d in node.actual.disks if d.healthy]
    disk = disks[int(rng.integers(len(disks)))]
    disk.healthy = False
    return node.uid, {"device": disk.device}


def _apply_ram_dimm(ctx: FaultContext, rng: np.random.Generator):
    node = ctx.pick_node(rng, lambda n: n.actual.ram_gb == n.description.ram_gb
                         and n.description.ram_gb >= 4)
    if node is None:
        return None
    old = node.actual.ram_gb
    node.actual.ram_gb = old // 2
    return node.uid, {"old_ram_gb": old}


def _apply_nic_downgrade(ctx: FaultContext, rng: np.random.Generator):
    def eligible(node: SimulatedNode) -> bool:
        nic = node.actual.nics[0]
        return nic.nominal_gbps >= 10.0 and nic.rate_gbps == nic.nominal_gbps

    node = ctx.pick_node(rng, eligible)
    if node is None:
        return None
    nic = node.actual.nics[0]
    old = nic.rate_gbps
    nic.rate_gbps = 1.0
    return node.uid, {"device": nic.device, "old_gbps": old}


def _apply_pdu_swap(ctx: FaultContext, rng: np.random.Generator):
    cluster = ctx.pick_cluster(rng, lambda c: len(ctx.clusters[c]) >= 2)
    if cluster is None:
        return None
    uids = ctx.clusters[cluster]
    i = int(rng.integers(len(uids) - 1))
    a, b = ctx.machines[uids[i]], ctx.machines[uids[i + 1]]
    a_wiring = (a.actual.pdu_uid, a.actual.pdu_port)
    b_wiring = (b.actual.pdu_uid, b.actual.pdu_port)
    if a_wiring == (a.description.pdu.pdu_uid, a.description.pdu.port) and \
       b_wiring == (b.description.pdu.pdu_uid, b.description.pdu.port):
        a.actual.pdu_uid, a.actual.pdu_port = b_wiring
        b.actual.pdu_uid, b.actual.pdu_port = a_wiring
        return cluster, {"nodes": [a.uid, b.uid]}
    return None


def _apply_ofed(ctx: FaultContext, rng: np.random.Generator):
    node = ctx.pick_node(rng, lambda n: n.actual.infiniband is not None
                         and n.actual.infiniband.stack_ok)
    if node is None:
        return None
    node.actual.infiniband.stack_ok = False
    return node.uid, {}


def _apply_random_reboots(ctx: FaultContext, rng: np.random.Generator):
    node = ctx.pick_node(rng, lambda n: n.crash_mtbf_s is None)
    if node is None:
        return None
    node.crash_mtbf_s = float(rng.uniform(2.0, 12.0)) * 3600.0
    old_prob = node.boot_failure_prob
    node.boot_failure_prob = 0.15
    return node.uid, {"mtbf_s": node.crash_mtbf_s, "old_boot_failure_prob": old_prob}


def _apply_boot_race(ctx: FaultContext, rng: np.random.Generator):
    cluster = ctx.pick_cluster(
        rng, lambda c: ctx.machines[ctx.clusters[c][0]].boot_race_delay_s == 0.0
    )
    if cluster is None:
        return None
    delay = float(rng.uniform(180.0, 600.0))
    for uid in ctx.clusters[cluster]:
        ctx.machines[uid].boot_race_delay_s = delay
    return cluster, {"delay_s": delay}


def _apply_console(ctx: FaultContext, rng: np.random.Generator):
    node = ctx.pick_node(rng, lambda n: n.actual.console_ok)
    if node is None:
        return None
    node.actual.console_ok = False
    return node.uid, {}


def _apply_oar_drift(ctx: FaultContext, rng: np.random.Generator):
    # Flip a documented property for a handful of a cluster's nodes in the
    # OAR database (simulated through ServiceHealth.oar_property_drift).
    cluster = ctx.pick_cluster(rng)
    assert cluster is not None
    uids = ctx.clusters[cluster]
    count = max(1, len(uids) // 8)
    chosen = [uids[int(i)] for i in rng.choice(len(uids), size=count, replace=False)]
    prop = ["memnode", "disktype", "eth10g"][int(rng.integers(3))]
    ctx.services.drift_oar_property(chosen, prop)
    return cluster, {"nodes": chosen, "property": prop}


def _apply_api_flaky(ctx: FaultContext, rng: np.random.Generator):
    site = ctx.pick_site(rng, lambda s: ctx.services.api_failure_prob.get(s, 0.0) == 0.0)
    if site is None:
        return None
    ctx.services.api_failure_prob[site] = float(rng.uniform(0.15, 0.5))
    return site, {"failure_prob": ctx.services.api_failure_prob[site]}


def _apply_cmdline(ctx: FaultContext, rng: np.random.Generator):
    site = ctx.pick_site(rng, lambda s: ctx.services.cmdline_failure_prob.get(s, 0.0) == 0.0)
    if site is None:
        return None
    ctx.services.cmdline_failure_prob[site] = float(rng.uniform(0.3, 0.9))
    return site, {"failure_prob": ctx.services.cmdline_failure_prob[site]}


def _apply_env_broken(ctx: FaultContext, rng: np.random.Generator):
    image = ctx.images[int(rng.integers(len(ctx.images)))]
    cluster = ctx.pick_cluster(rng, lambda c: (image, c) not in ctx.services.broken_images)
    if cluster is None:
        return None
    ctx.services.broken_images.add((image, cluster))
    return f"{image}@{cluster}", {"image": image, "cluster": cluster}


def _apply_deploy_degraded(ctx: FaultContext, rng: np.random.Generator):
    cluster = ctx.pick_cluster(rng, lambda c: c not in ctx.services.deploy_degradation)
    if cluster is None:
        return None
    ctx.services.deploy_degradation[cluster] = float(rng.uniform(0.15, 0.4))
    return cluster, {"extra_failure_prob": ctx.services.deploy_degradation[cluster]}


def _apply_kavlan(ctx: FaultContext, rng: np.random.Generator):
    site = ctx.pick_site(rng, lambda s: s not in ctx.services.kavlan_broken)
    if site is None:
        return None
    ctx.services.kavlan_broken.add(site)
    return site, {}


def _apply_kwapi_down(ctx: FaultContext, rng: np.random.Generator):
    site = ctx.pick_site(rng, lambda s: s not in ctx.services.kwapi_down)
    if site is None:
        return None
    ctx.services.kwapi_down.add(site)
    return site, {}


_APPLY: dict[FaultKind, _Handler] = {
    FaultKind.CPU_CSTATES: _bios_flag_handler("c_states", True),
    FaultKind.CPU_HYPERTHREADING: _bios_flag_handler("hyperthreading", True, "ht_capable"),
    FaultKind.CPU_TURBO: _bios_flag_handler("turbo_boost", True, "turbo_capable"),
    FaultKind.CPU_POWER_PROFILE: _bios_flag_handler("power_profile", "balanced"),
    FaultKind.BIOS_VERSION_SKEW: _apply_bios_version_skew,
    FaultKind.DISK_WRITE_CACHE: _disk_flag_handler("write_cache"),
    FaultKind.DISK_READ_AHEAD: _disk_flag_handler("read_ahead"),
    FaultKind.DISK_FIRMWARE_SKEW: _apply_disk_firmware_skew,
    FaultKind.DISK_DEAD: _apply_disk_dead,
    FaultKind.RAM_DIMM_FAILED: _apply_ram_dimm,
    FaultKind.NIC_DOWNGRADE: _apply_nic_downgrade,
    FaultKind.PDU_CABLE_SWAP: _apply_pdu_swap,
    FaultKind.IB_OFED_FAILURE: _apply_ofed,
    FaultKind.RANDOM_REBOOTS: _apply_random_reboots,
    FaultKind.KERNEL_BOOT_RACE: _apply_boot_race,
    FaultKind.CONSOLE_BROKEN: _apply_console,
    FaultKind.OAR_PROPERTY_DRIFT: _apply_oar_drift,
    FaultKind.API_FLAKY: _apply_api_flaky,
    FaultKind.CMDLINE_BROKEN: _apply_cmdline,
    FaultKind.ENV_IMAGE_BROKEN: _apply_env_broken,
    FaultKind.DEPLOY_DEGRADED: _apply_deploy_degraded,
    FaultKind.KAVLAN_MISCONFIG: _apply_kavlan,
    FaultKind.KWAPI_DOWN: _apply_kwapi_down,
}


def apply_fault(kind: FaultKind, ctx: FaultContext, rng: np.random.Generator,
                fault_id: int, now: float) -> Optional[FaultInstance]:
    """Inject one fault of ``kind``; returns None if no eligible target."""
    if kind not in _APPLY:
        raise FaultError(f"no apply handler for {kind}")
    result = _APPLY[kind](ctx, rng)
    if result is None:
        return None
    target, details = result
    cluster: Optional[str] = None
    if target in ctx.clusters:
        cluster = target
        site = ctx.site_of_cluster(target)
    elif target in ctx.sites:
        site = target
    elif "@" in target:
        cluster = target.split("@", 1)[1]
        site = ctx.site_of_cluster(cluster)
    else:  # node uid
        node = ctx.machines[target]
        cluster, site = node.cluster_uid, node.site_uid
    return FaultInstance(
        fault_id=fault_id, kind=kind, target=target, site=site, cluster=cluster,
        injected_at=now, details=details,
    )


def revert_fault(instance: FaultInstance, ctx: FaultContext) -> None:
    """Undo a fault (the operator's fix).  Idempotent per instance."""
    if not instance.active:
        return
    kind, target, details = instance.kind, instance.target, instance.details
    machines, services = ctx.machines, ctx.services
    if kind in (FaultKind.CPU_CSTATES, FaultKind.CPU_HYPERTHREADING,
                FaultKind.CPU_TURBO, FaultKind.CPU_POWER_PROFILE):
        setattr(machines[target].actual.bios, details["attr"], details["old"])
    elif kind == FaultKind.BIOS_VERSION_SKEW:
        for uid, version in details["old_versions"].items():
            machines[uid].actual.bios.version = version
    elif kind in (FaultKind.DISK_WRITE_CACHE, FaultKind.DISK_READ_AHEAD):
        setattr(machines[target].actual.find_disk(details["device"]), details["attr"], True)
    elif kind == FaultKind.DISK_FIRMWARE_SKEW:
        for uid, fw in details["old_firmware"].items():
            machines[uid].actual.find_disk(details["device"]).firmware = fw
    elif kind == FaultKind.DISK_DEAD:
        machines[target].actual.find_disk(details["device"]).healthy = True
    elif kind == FaultKind.RAM_DIMM_FAILED:
        machines[target].actual.ram_gb = details["old_ram_gb"]
    elif kind == FaultKind.NIC_DOWNGRADE:
        machines[target].actual.find_nic(details["device"]).rate_gbps = details["old_gbps"]
    elif kind == FaultKind.PDU_CABLE_SWAP:
        a, b = (machines[u] for u in details["nodes"])
        a.actual.pdu_uid, a.actual.pdu_port = a.description.pdu.pdu_uid, a.description.pdu.port
        b.actual.pdu_uid, b.actual.pdu_port = b.description.pdu.pdu_uid, b.description.pdu.port
    elif kind == FaultKind.IB_OFED_FAILURE:
        machines[target].actual.infiniband.stack_ok = True
    elif kind == FaultKind.RANDOM_REBOOTS:
        machines[target].crash_mtbf_s = None
        machines[target].boot_failure_prob = details["old_boot_failure_prob"]
    elif kind == FaultKind.KERNEL_BOOT_RACE:
        for uid in ctx.clusters[target]:
            machines[uid].boot_race_delay_s = 0.0
    elif kind == FaultKind.CONSOLE_BROKEN:
        machines[target].actual.console_ok = True
    elif kind == FaultKind.OAR_PROPERTY_DRIFT:
        services.fix_oar_property(details["nodes"], details["property"])
    elif kind == FaultKind.API_FLAKY:
        services.api_failure_prob.pop(target, None)
    elif kind == FaultKind.CMDLINE_BROKEN:
        services.cmdline_failure_prob.pop(target, None)
    elif kind == FaultKind.ENV_IMAGE_BROKEN:
        services.broken_images.discard((details["image"], details["cluster"]))
    elif kind == FaultKind.DEPLOY_DEGRADED:
        services.deploy_degradation.pop(target, None)
    elif kind == FaultKind.KAVLAN_MISCONFIG:
        services.kavlan_broken.discard(target)
    elif kind == FaultKind.KWAPI_DOWN:
        services.kwapi_down.discard(target)
    else:  # pragma: no cover - exhaustive above
        raise FaultError(f"no revert handler for {kind}")
    instance.active = False
