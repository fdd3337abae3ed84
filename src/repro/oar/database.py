"""OAR resource database: node properties derived from the Reference API.

Slide 7: "*OAR database filled from Reference API*" — users then select
resources with property expressions (``gpu='YES'``, ``eth10g='Y'``...).

The database keeps its **own copy** of the properties.  Normally a sync
keeps it consistent with the Reference API, but the ``OAR_PROPERTY_DRIFT``
fault corrupts individual rows (exactly the kind of silent inconsistency
the *oarproperties* test family exists to catch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..faults.services import ServiceHealth
from ..testbed.description import NodeDescription
from ..testbed.refapi import ReferenceApi
from .request import PropExpr

__all__ = ["properties_from_description", "OarDatabase"]

#: Infiniband rate -> OAR `ib` property value.
_IB_NAMES = {20: "DDR", 40: "QDR", 56: "FDR"}


def properties_from_description(desc: NodeDescription) -> dict[str, Any]:
    """Render one node's description into its OAR property row."""
    return {
        "network_address": f"{desc.uid}.{desc.site}.grid5000.fr",
        "cluster": desc.cluster,
        "site": desc.site,
        "cpucore": desc.cpu.cores,
        "cpucount": desc.cpu_count,
        "corecount": desc.total_cores,
        "cpuarch": desc.cpu.microarchitecture,
        "memnode": desc.ram_gb * 1024,  # MB, like real OAR
        "gpu": "YES" if desc.gpu else "NO",
        "gpucount": desc.gpu.count if desc.gpu else 0,
        "eth10g": "Y" if desc.has_10g else "N",
        "ethnb": len(desc.nics),
        "ib": _IB_NAMES.get(desc.infiniband.rate_gbps, "NO") if desc.infiniband else "NO",
        "disktype": desc.disks[0].interface,
        "disknb": len(desc.disks),
        "deploy": "YES",
        "virtual": "ivt" if desc.cpu.vendor == "intel" else "amd-v",
    }


def _corrupt(props: dict[str, Any], drifted: Iterable[str]) -> dict[str, Any]:
    """Apply the OAR_PROPERTY_DRIFT corruption to a property row."""
    out = dict(props)
    for prop in drifted:
        if prop == "memnode":
            out["memnode"] = out["memnode"] // 2
        elif prop == "disktype":
            out["disktype"] = "UNKNOWN"
        elif prop == "eth10g":
            out["eth10g"] = "N" if out["eth10g"] == "Y" else "Y"
        else:
            out[prop] = None
    return out


@dataclass
class OarDatabase:
    """Property rows for every node, kept nominally in sync with the refapi."""

    refapi: ReferenceApi
    services: ServiceHealth
    _rows: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sync_from_refapi()

    def sync_from_refapi(self) -> None:
        """Re-derive every row from the current Reference API HEAD.

        Rows under the influence of an active OAR_PROPERTY_DRIFT fault stay
        corrupted even after a sync (the drift models a broken sync job /
        manual edit, which a plain re-run does not repair until the
        underlying fault is fixed).
        """
        self._rows = {}
        for node in self.refapi.testbed.iter_nodes():
            self._rows[node.uid] = properties_from_description(node)

    # -- queries -----------------------------------------------------------

    def node_uids(self) -> list[str]:
        return sorted(self._rows)

    def properties(self, uid: str) -> dict[str, Any]:
        """The row as OAR sees it (drift corruption applied)."""
        row = self._rows[uid]
        drifted = self.services.oar_property_drift.get(uid)
        return _corrupt(row, drifted) if drifted else dict(row)

    def matching(self, expr: Optional[PropExpr],
                 candidates: Optional[Iterable[str]] = None) -> list[str]:
        """Node uids whose (possibly corrupted) properties satisfy ``expr``.

        The per-row definition: the server's ``matching_mask`` selects the
        same nodes from a column index of these rows."""
        uids = sorted(candidates) if candidates is not None else self.node_uids()
        if expr is None:
            return uids
        return [uid for uid in uids if expr.evaluate(self.properties(uid))]
