"""Simulated physical machines: the *actual* state of each node.

The Reference API (:mod:`repro.testbed.refapi`) holds what the testbed
*claims*; a :class:`SimulatedNode` holds what the hardware *is*.  On a
healthy node the two agree.  Faults (:mod:`repro.faults`) silently mutate
the actual state — a BIOS option flips during a maintenance, a disk gets
replaced with one running older firmware, a cable gets swapped — and the
whole point of the paper's framework is to detect those divergences.

The mutable state also drives a small performance model: disk bandwidth
depends on the cache/firmware state and network rate on the negotiated
link, so performance-measuring checks (disk, mpigraph) observe realistic
signal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from ..testbed.description import ClusterDescription, NodeDescription
from ..util.events import Simulator
from ..util.rng import RngStreams

__all__ = [
    "PowerState",
    "ActualBios",
    "ActualDisk",
    "ActualNic",
    "ActualInfiniband",
    "HardwareState",
    "SimulatedNode",
    "MachinePark",
]

#: Baseline sequential throughput by storage type, MB/s.
_DISK_BASE_MBPS = {"HDD": 120.0, "SSD": 440.0}

#: Idle / per-core-load power draw in watts, by CPU vendor era (rough).
_IDLE_WATTS = 95.0
_WATTS_PER_BUSY_CORE = 9.0


class PowerState(enum.Enum):
    OFF = "off"
    BOOTING = "booting"
    ON = "on"
    CRASHED = "crashed"


@dataclass
class ActualBios:
    version: str
    c_states: bool
    hyperthreading: bool
    turbo_boost: bool
    power_profile: str


@dataclass
class ActualDisk:
    device: str
    vendor: str
    model: str
    size_gb: int
    interface: str
    storage_type: str
    firmware: str
    write_cache: bool
    read_ahead: bool
    healthy: bool = True


@dataclass
class ActualNic:
    device: str
    model: str
    driver: str
    rate_gbps: float  # negotiated link rate; may be lower than nominal
    nominal_gbps: float
    mac: str
    link_up: bool = True


@dataclass
class ActualInfiniband:
    model: str
    rate_gbps: int
    guid: str
    #: The OFED userland stack can fail to start (a real bug on slide 22).
    stack_ok: bool = True


@dataclass
class HardwareState:
    """Everything a fact-acquisition tool could observe on the node."""

    bios: ActualBios
    cpu_count: int
    cores_per_cpu: int
    threads_per_core: int
    clock_ghz: float
    cpu_model: str
    ram_gb: int
    disks: list[ActualDisk]
    nics: list[ActualNic]
    infiniband: Optional[ActualInfiniband]
    serial: str
    #: What the node reports as its name (OHAI) and its product
    #: (dmidecode): its uid and its cluster.
    hostname: str
    product_name: str
    #: PDU outlet this node is *actually* cabled to (cabling faults swap it).
    pdu_uid: str = ""
    pdu_port: int = 0
    console_ok: bool = True

    @classmethod
    def from_description(cls, desc: NodeDescription) -> "HardwareState":
        return cls(
            bios=ActualBios(
                version=desc.bios.version,
                c_states=desc.bios.c_states,
                hyperthreading=desc.bios.hyperthreading,
                turbo_boost=desc.bios.turbo_boost,
                power_profile=desc.bios.power_profile,
            ),
            cpu_count=desc.cpu_count,
            cores_per_cpu=desc.cpu.cores,
            threads_per_core=desc.cpu.threads_per_core,
            clock_ghz=desc.cpu.clock_ghz,
            cpu_model=desc.cpu.model,
            ram_gb=desc.ram_gb,
            disks=[
                ActualDisk(
                    device=d.device,
                    vendor=d.vendor,
                    model=d.model,
                    size_gb=d.size_gb,
                    interface=d.interface,
                    storage_type=d.storage_type,
                    firmware=d.firmware,
                    write_cache=d.write_cache,
                    read_ahead=d.read_ahead,
                )
                for d in desc.disks
            ],
            nics=[
                ActualNic(
                    device=n.device,
                    model=n.model,
                    driver=n.driver,
                    rate_gbps=n.rate_gbps,
                    nominal_gbps=n.rate_gbps,
                    mac=n.mac,
                )
                for n in desc.nics
            ],
            infiniband=(
                ActualInfiniband(
                    model=desc.infiniband.model,
                    rate_gbps=desc.infiniband.rate_gbps,
                    guid=desc.infiniband.guid,
                )
                if desc.infiniband
                else None
            ),
            serial=desc.serial,
            hostname=desc.uid,
            product_name=desc.cluster,
            pdu_uid=desc.pdu.pdu_uid,
            pdu_port=desc.pdu.port,
        )

    def visible_logical_cpus(self) -> int:
        """What /proc/cpuinfo would show, given the current HT setting."""
        threads = self.threads_per_core if self.bios.hyperthreading else 1
        return self.cpu_count * self.cores_per_cpu * threads

    def find_disk(self, device: str) -> ActualDisk:
        for d in self.disks:
            if d.device == device:
                return d
        raise KeyError(f"{self.hostname}: no disk {device}")

    def find_nic(self, device: str) -> ActualNic:
        for n in self.nics:
            if n.device == device:
                return n
        raise KeyError(f"{self.hostname}: no NIC {device}")


class SimulatedNode:
    """One machine: actual hardware + power/boot state + performance model."""

    def __init__(
        self,
        sim: Simulator,
        desc: NodeDescription,
        cluster: ClusterDescription,
        rng_streams: RngStreams,
        index: int,
    ):
        self.sim = sim
        self.description = desc
        self.uid = desc.uid
        self.cluster_uid = cluster.uid
        self.site_uid = desc.site
        self.actual = HardwareState.from_description(desc)
        #: The park that owns this node, the node's bit in the park's
        #: alive mask and its position in testbed order (set when the park
        #: is built).
        self._park: Optional[MachinePark] = None
        self._bit = 0
        self._order = 0
        self.state = PowerState.ON
        self._mean_boot_s = cluster.boot_time_s
        self._rng = rng_streams.fork("node-timing", index)
        self.deployed_env = "std"  # currently installed environment image
        self.boot_count = 0
        #: Extra boot delay in seconds added by kernel-race style faults.
        self.boot_race_delay_s = 0.0
        #: Probability that one power cycle fails to bring the node up.
        #: The small baseline models ordinary flakiness; the random-reboots
        #: fault raises it dramatically.
        self.boot_failure_prob = 0.001
        self._crash_mtbf_s: Optional[float] = None
        #: CPU load factor in [0,1] (set by workload/monitoring consumers).
        self.cpu_load = 0.0

    # -- boot / power ---------------------------------------------------------

    def sample_boot_duration(self) -> float:
        """Boot time: lognormal jitter around the cluster mean, plus any
        fault-induced race delay (intermittent, like the real kernel bug)."""
        jitter = float(self._rng.lognormal(mean=0.0, sigma=0.1))
        duration = self._mean_boot_s * jitter
        if self.boot_race_delay_s > 0 and self._rng.random() < 0.5:
            duration += self.boot_race_delay_s
        return duration

    def sample_boot_ok(self) -> bool:
        """Whether one power cycle succeeds (random-reboot faults fail often)."""
        return float(self._rng.random()) >= self.boot_failure_prob

    def boot(self, env: Optional[str] = None, factor: float = 1.0):
        """Process generator: power-cycle the node into ``env``.

        ``factor`` scales the sampled boot duration (Kadeploy's lighter
        deployment-environment boots).  Returns the boot duration, or
        raises nothing — a failed boot leaves the node CRASHED (callers
        check ``available``).
        """
        self.state = PowerState.BOOTING
        duration = self.sample_boot_duration() * factor
        yield self.sim.timeout(duration)
        self.boot_count += 1
        if not self.sample_boot_ok():
            self.state = PowerState.CRASHED
            return duration
        if env is not None:
            self.deployed_env = env
        self.state = PowerState.ON
        return duration

    def crash(self) -> None:
        """Spontaneous failure (random-reboot fault, dead PSU...)."""
        self.state = PowerState.CRASHED

    @property
    def state(self) -> PowerState:
        return self._state

    @state.setter
    def state(self, value: PowerState) -> None:
        """Every power-state write keeps the park's alive and crashed masks
        current."""
        self._state = value
        park = self._park
        if park is not None:
            bit = self._bit
            if value is PowerState.ON:
                park.alive_mask |= bit
            else:
                park.alive_mask &= ~bit
            if value is PowerState.CRASHED:
                park.crashed_mask |= bit
            else:
                park.crashed_mask &= ~bit

    @property
    def available(self) -> bool:
        return self._state is PowerState.ON

    @property
    def crash_mtbf_s(self) -> Optional[float]:
        """Mean time between spontaneous crashes (None = stable machine)."""
        return self._crash_mtbf_s

    @crash_mtbf_s.setter
    def crash_mtbf_s(self, value: Optional[float]) -> None:
        """Every write keeps the park's index of crash-prone nodes
        current."""
        self._crash_mtbf_s = value
        park = self._park
        if park is not None:
            if value is None:
                park.crash_prone.pop(self._order, None)
            else:
                park.crash_prone[self._order] = self

    # -- performance model ------------------------------------------------------

    def disk_bandwidth_mbps(self, device: str) -> float:
        """Measured sequential write bandwidth for one disk."""
        disk = self.actual.find_disk(device)
        if not disk.healthy:
            return 0.0
        bw = _DISK_BASE_MBPS[disk.storage_type]
        if not disk.write_cache:
            bw *= 0.45  # write-cache off halves streaming writes (real bug)
        if not disk.read_ahead:
            bw *= 0.85
        # Older firmware -> a few percent slower (the slide-22 firmware bug).
        model_versions = self._firmware_lineage(disk)
        if disk.firmware in model_versions:
            lag = len(model_versions) - 1 - model_versions.index(disk.firmware)
            bw *= 0.95**lag
        return bw

    @staticmethod
    def _firmware_lineage(disk: ActualDisk) -> tuple[str, ...]:
        from ..testbed.catalog import DISK_MODELS

        for dm in DISK_MODELS:
            if dm.model == disk.model:
                return dm.firmware_versions
        return (disk.firmware,)

    def network_rate_gbps(self, device: str = "eth0") -> float:
        nic = self.actual.find_nic(device)
        return nic.rate_gbps if nic.link_up else 0.0

    def power_draw_watts(self) -> float:
        """Instantaneous draw given current load (consumed by kwapi)."""
        if self.state in (PowerState.OFF, PowerState.CRASHED):
            return 6.0  # BMC only
        busy_cores = self.cpu_load * self.actual.cpu_count * self.actual.cores_per_cpu
        draw = _IDLE_WATTS + _WATTS_PER_BUSY_CORE * busy_cores
        if self.actual.bios.turbo_boost and self.cpu_load > 0.5:
            draw *= 1.12
        return draw

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimulatedNode {self.uid} {self.state.value}>"


class MachinePark:
    """All simulated machines, indexed by node uid, plus the park-wide
    alive bitmask.

    Each node owns one bit, given once in sorted-uid order — the order of
    ``OarDatabase.node_uids()`` and of the Gantt's availability profile,
    so ``alive_mask`` composes with the scheduler's masks by plain ``&``.
    Bit ``b`` of ``alive_mask`` is set iff the node holding it is
    :attr:`PowerState.ON`, and bit ``b`` of ``crashed_mask`` iff it is
    :attr:`PowerState.CRASHED`; the node's ``state`` setter flips both on
    every change, so no reader ever rescans the park.  Likewise
    :attr:`crash_prone` holds the nodes whose ``crash_mtbf_s`` is set,
    kept by that attribute's setter.
    """

    def __init__(self, machines: Iterable[SimulatedNode]) -> None:
        #: uid -> node, in testbed order.
        self.machines: dict[str, SimulatedNode] = {m.uid: m for m in machines}
        #: Node uids in bit order.
        self.uids: list[str] = sorted(self.machines)
        self.alive_mask = 0
        self.crashed_mask = 0
        #: Position in testbed order -> node, for every node with a crash
        #: MTBF set (:meth:`crash_prone_nodes` lists them in that order).
        self.crash_prone: dict[int, SimulatedNode] = {}
        for order, node in enumerate(self.machines.values()):
            node._order = order
            if node.crash_mtbf_s is not None:
                self.crash_prone[order] = node
        for i, uid in enumerate(self.uids):
            node = self.machines[uid]
            node._park = self
            node._bit = 1 << i
            if node.available:
                self.alive_mask |= node._bit
            elif node.state is PowerState.CRASHED:
                self.crashed_mask |= node._bit

    @classmethod
    def from_testbed(cls, sim: Simulator, testbed, rng_streams: RngStreams) -> "MachinePark":
        nodes: list[SimulatedNode] = []
        for cluster in testbed.iter_clusters():
            for desc in cluster.nodes:
                nodes.append(SimulatedNode(sim, desc, cluster, rng_streams,
                                           len(nodes)))
        return cls(nodes)

    def __getitem__(self, uid: str) -> SimulatedNode:
        return self.machines[uid]

    def __contains__(self, uid: str) -> bool:
        return uid in self.machines

    def __len__(self) -> int:
        return len(self.machines)

    def crash_prone_nodes(self) -> list[SimulatedNode]:
        """The nodes with a crash MTBF set, in testbed order."""
        prone = self.crash_prone
        return [prone[order] for order in sorted(prone)]
