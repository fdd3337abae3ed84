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
re-read on every measurement, because cabling faults mutate it in place:
a read checks the node's own cable first and scans the park only when a
fault moved it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..faults.services import ServiceHealth
from ..nodes.machine import MachinePark
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

    def _read(self, node_uid: str) -> Optional[float]:
        """Measure the machine actually cabled to ``node_uid``'s documented
        outlet: the node itself while its cable is still there, otherwise
        whichever machine a cabling fault moved onto it.  Faults only swap
        cables, so at most one machine sits on an outlet."""
        outlet = self._outlet_of.get(node_uid)
        if outlet is None or self._site_of[node_uid] in self.services.kwapi_down:
            return None
        machines = self.machines.machines
        node = machines.get(node_uid)
        if node is not None and (node.actual.pdu_uid, node.actual.pdu_port) == outlet:
            return node.power_draw_watts()
        for machine in machines.values():
            if (machine.actual.pdu_uid, machine.actual.pdu_port) == outlet:
                return machine.power_draw_watts()
        return None

    def node_power_watts(self, node_uid: str) -> Optional[float]:
        """What the monitoring service *reports* for a node.

        Looks up the node's documented outlet and measures whatever machine
        is actually cabled there; if cables were swapped this returns the
        neighbour's consumption.  Returns None when the site's kwapi is
        down, the node is undocumented or the outlet reads nothing.
        """
        return self._read(node_uid)

    def sample_park(self, node_uids: Iterable[str]) -> int:
        """Read every node's documented outlet in one sweep; returns the
        number of nodes that reported a value."""
        return sum(self._read(uid) is not None for uid in node_uids)
