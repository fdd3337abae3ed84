"""Monitoring services: Ganglia system probes and kwapi power probes.

* :class:`Kwapi` measures power per **PDU outlet** and maps outlets back to
  nodes using the *documented* wiring from the Reference API.  When a
  cabling fault swapped two power cables, kwapi faithfully reports the
  *wrong node's* consumption — the exact slide-13 bug ("cabling issue ⇒
  wrong measurements by testbed monitoring service").  A site under
  ``KWAPI_DOWN`` returns no measurements at all.  The kwapi check family
  reads it through :meth:`Kwapi.node_power_watts`.
* :class:`Ganglia` reads per-node system metrics (CPU load, memory,
  liveness) — slide 9's "system-level probes".  No run reads them; the
  class is the sweep entry point perfbench's tracer wraps.

Neither probe keeps what it read: a reading is returned, not stored.
Only the *documented* wiring is precomputed — the actual cabling is
re-read on every measurement, because cabling faults mutate it in place.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..faults.services import ServiceHealth
from ..nodes.machine import MachinePark, SimulatedNode
from ..testbed.description import TestbedDescription

__all__ = ["Ganglia", "Kwapi"]


class Ganglia:
    """System-level metric collection."""

    def __init__(self, machines: MachinePark) -> None:
        self.machines = machines

    def sample(self, uid: str) -> tuple[float, float, float]:
        """One node's ``(cpu_load, mem_total_gb, up)`` as read now."""
        machine = self.machines[uid]
        return (machine.cpu_load, machine.actual.ram_gb,
                float(machine.available))

    def sample_park(self, uids: Iterable[str]) -> int:
        """Read every node of ``uids``; returns the number read."""
        return len([self.sample(uid) for uid in uids])


class Kwapi:
    """Power monitoring through PDU outlets."""

    def __init__(self, machines: MachinePark, testbed: TestbedDescription,
                 services: ServiceHealth) -> None:
        self.machines = machines
        self.services = services
        #: documented wiring, node uid -> (pdu uid, port); the documentation
        #: never changes at runtime (only the *actual* cabling drifts), so
        #: this is safe to freeze.
        self._outlet_of: dict[str, tuple[str, int]] = {}
        self._site_of: dict[str, str] = {}
        for node in testbed.iter_nodes():
            self._outlet_of[node.uid] = (node.pdu.pdu_uid, node.pdu.port)
            self._site_of[node.uid] = node.site

    def _actual_wiring(self) -> dict[tuple[str, int], SimulatedNode]:
        """One pass over the park: (pdu uid, port) actually cabled -> machine.

        Built fresh per read — cabling faults mutate ``machine.actual``
        in place, so this must never be cached across simulated events.
        """
        return {(m.actual.pdu_uid, m.actual.pdu_port): m
                for m in self.machines.machines.values()}

    def _read(self, node_uid: str,
              wiring: dict[tuple[str, int], SimulatedNode]) -> Optional[float]:
        outlet = self._outlet_of.get(node_uid)
        if outlet is None or self._site_of[node_uid] in self.services.kwapi_down:
            return None
        machine = wiring.get(outlet)
        return machine.power_draw_watts() if machine is not None else None

    def node_power_watts(self, node_uid: str) -> Optional[float]:
        """What the monitoring service *reports* for a node.

        Looks up the node's documented outlet and measures whatever machine
        is actually cabled there; if cables were swapped this returns the
        neighbour's consumption.  Returns None when the site's kwapi is
        down, the node is undocumented or the outlet reads nothing.
        """
        return self._read(node_uid, self._actual_wiring())

    def sample_park(self, node_uids: Iterable[str]) -> int:
        """Read every node's documented outlet in one sweep; returns the
        number of nodes that reported a value.

        The actual-cabling map is built once for the whole sweep, so a
        park sweep is O(nodes) rather than O(nodes^2).
        """
        wiring = self._actual_wiring()
        return sum(self._read(uid, wiring) is not None for uid in node_uids)
