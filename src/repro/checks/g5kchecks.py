"""g5k-checks: verify a node's acquired facts against the Reference API.

Slide 7: *"Our solution: g5k-checks — runs at node boot (or manually by
users); acquires info using OHAI, ethtool, etc.; compares with Reference
API."*

The comparison works in three steps:

1. :func:`repro.nodes.acquisition.acquire_all` renders the node's *actual*
   hardware into tool-shaped facts, and :func:`expected_facts` runs the
   same emulators on the hardware state its *description* claims;
2. a deep structural diff pinpoints every divergence;
3. each divergence is classified into a root-cause hint
   (:class:`~repro.faults.catalog.FaultKind`) so reports are actionable —
   the paper stresses that tests must "provide sufficient information to
   testbed operators to understand and fix the issue".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..faults.catalog import FaultKind
from ..nodes.acquisition import acquire_all
from ..nodes.machine import HardwareState, SimulatedNode
from ..testbed.description import NodeDescription
from ..testbed.refapi import ReferenceApi
from ..util.serialization import deep_diff

__all__ = ["Mismatch", "NodeCheckReport", "expected_facts", "run_g5k_checks"]


@dataclass(frozen=True)
class Mismatch:
    """One divergence between description and acquired facts."""

    path: str
    expected: Any
    actual: Any
    #: Root-cause classification (None when the path is not recognized).
    kind_hint: Optional[FaultKind]

    def __str__(self) -> str:
        hint = f" [{self.kind_hint.value}]" if self.kind_hint else ""
        return f"{self.path}: expected {self.expected!r}, got {self.actual!r}{hint}"


@dataclass
class NodeCheckReport:
    """Result of one g5k-checks run on one node."""

    node_uid: str
    timestamp: float
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def hints(self) -> set[FaultKind]:
        return {m.kind_hint for m in self.mismatches if m.kind_hint is not None}

    def summary(self) -> str:
        if self.ok:
            return f"{self.node_uid}: OK"
        lines = [f"{self.node_uid}: {len(self.mismatches)} mismatch(es)"]
        lines.extend(f"  - {m}" for m in self.mismatches)
        return "\n".join(lines)


def expected_facts(desc: NodeDescription) -> dict[str, Any]:
    """What acquisition *should* return if the hardware matches its
    description exactly (the g5k-checks 'golden' document): the same
    emulators, run on the hardware state the description claims."""
    return acquire_all(HardwareState.from_description(desc))


#: Ordered (prefix/suffix pattern, fault-kind) classification rules.  The
#: first match wins; paths are the dotted paths of the structural diff.
_CLASSIFICATION: tuple[tuple[str, FaultKind], ...] = (
    ("cpupower.c_states", FaultKind.CPU_CSTATES),
    ("cpupower.turbo_boost", FaultKind.CPU_TURBO),
    ("cpupower.governor", FaultKind.CPU_POWER_PROFILE),
    ("cpupower.smt_active", FaultKind.CPU_HYPERTHREADING),
    ("ohai.cpu.total", FaultKind.CPU_HYPERTHREADING),
    ("ohai.memory.total_kb", FaultKind.RAM_DIMM_FAILED),
    ("ohai.block_device", FaultKind.DISK_DEAD),
    ("dmidecode.bios.version", FaultKind.BIOS_VERSION_SKEW),
    ("ethtool", FaultKind.NIC_DOWNGRADE),
    ("hdparm", None),  # refined below by suffix
    ("smartctl", None),
    ("ibstat", FaultKind.IB_OFED_FAILURE),
)


def _classify(path: str) -> Optional[FaultKind]:
    if path.startswith("hdparm"):
        if path.endswith("write_cache"):
            return FaultKind.DISK_WRITE_CACHE
        if path.endswith("read_ahead"):
            return FaultKind.DISK_READ_AHEAD
        if path.endswith("firmware"):
            return FaultKind.DISK_FIRMWARE_SKEW
        return FaultKind.DISK_DEAD  # whole-device add/remove
    if path.startswith("smartctl"):
        if path.endswith("firmware_version"):
            return FaultKind.DISK_FIRMWARE_SKEW
        return FaultKind.DISK_DEAD
    for prefix, kind in _CLASSIFICATION:
        if path.startswith(prefix) and kind is not None:
            return kind
    return None


def run_g5k_checks(node: SimulatedNode, refapi: ReferenceApi,
                   now: float = 0.0) -> NodeCheckReport:
    """Acquire facts from ``node`` and compare with its reference description.

    Returns a report listing every mismatch with a root-cause hint; an
    empty mismatch list means the node conforms to its description.
    """
    desc = refapi.node(node.uid)
    expected = expected_facts(desc)
    acquired = acquire_all(node.actual)
    report = NodeCheckReport(node_uid=node.uid, timestamp=now)
    for entry in deep_diff(expected, acquired):
        report.mismatches.append(
            Mismatch(
                path=entry.path,
                expected=entry.old,
                actual=entry.new,
                kind_hint=_classify(entry.path),
            )
        )
    return report
