"""Monitoring services: Ganglia system probes and kwapi power probes.

* :class:`Ganglia` samples per-node system metrics (CPU load, memory) —
  slide 9's "system-level probes".
* :class:`Kwapi` measures power per **PDU outlet** and maps outlets back to
  nodes using the *documented* wiring from the Reference API.  When a
  cabling fault swapped two power cables, kwapi faithfully reports the
  *wrong node's* consumption — the exact slide-13 bug ("cabling issue ⇒
  wrong measurements by testbed monitoring service").  A site under
  ``KWAPI_DOWN`` returns no measurements at all.

Each probe reserves one :class:`~repro.monitoring.metrics.RingColumnBlock`
for all its per-node series when it is built and keeps a ``uid -> column``
map, so a park-wide sweep gathers the park's values into arrays and lands
them with one numpy scatter per metric.  Only the *documented* wiring is
precomputed — the actual cabling is re-read on every measurement, because
cabling faults mutate it in place.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Generator, Iterable, Optional

import numpy as np

from ..faults.services import ServiceHealth
from ..nodes.machine import MachinePark, SimulatedNode
from ..testbed.description import TestbedDescription
from ..util.errors import MonitoringError
from ..util.events import Simulator, Timeout
from .metrics import MetricStore

__all__ = ["Ganglia", "Kwapi"]

#: Ganglia's per-node metric names, in recording order.
_GANGLIA_METRICS = ("cpu_load", "mem_total_gb", "up")


def _distinct(uids: Iterable[str]) -> list[str]:
    """``uids`` as a list; a sweep's scatter would drop a repeated node's
    second sample, so a repeat is an error."""
    nodes = list(uids)
    if len(set(nodes)) != len(nodes):
        repeated = sorted(u for u, k in Counter(nodes).items() if k > 1)
        raise MonitoringError(f"sweep repeats nodes: {', '.join(repeated)}")
    return nodes


class Ganglia:
    """System-level metric collection."""

    def __init__(self, sim: Simulator, machines: MachinePark,
                 store: Optional[MetricStore] = None,
                 period_s: float = 60.0) -> None:
        self.sim = sim
        self.machines = machines
        self.store = store if store is not None else MetricStore()
        self.period_s = period_s
        #: The node list of the live sampling loop (None when stopped); a
        #: loop exits once this is no longer its own list, so a restart
        #: within one period never leaves two loops sampling.
        self._sweep: Optional[list[str]] = None
        #: Node *i* (database order) owns column ``m * n + i`` for metric
        #: *m* of the block.
        uids = sorted(machines.machines)
        self._n = len(uids)
        self._col = {uid: i for i, uid in enumerate(uids)}
        self._block = self.store.add_block(
            [f"{uid}.{metric}" for metric in _GANGLIA_METRICS for uid in uids])

    def sample_park(self, uids: Iterable[str]) -> int:
        """Sample every node in one sweep; returns the number sampled.

        Raises :class:`MonitoringError` when ``uids`` repeats a node.
        """
        nodes = _distinct(uids)
        count = len(nodes)
        machines = [self.machines[uid] for uid in nodes]
        cols = np.fromiter((self._col[uid] for uid in nodes), dtype=np.intp,
                           count=count)
        cpu = np.fromiter((m.cpu_load for m in machines), dtype=np.float64,
                          count=count)
        mem = np.fromiter((m.actual.ram_gb for m in machines),
                          dtype=np.float64, count=count)
        up = np.fromiter((m.available for m in machines), dtype=np.float64,
                         count=count)
        now, n = self.sim.now, self._n
        self._block.append_rows(cols, now, cpu)
        self._block.append_rows(cols + n, now, mem)
        self._block.append_rows(cols + 2 * n, now, up)
        return count

    def start(self, node_uids: Optional[list[str]] = None) -> None:
        """Start periodic sampling (all nodes by default).

        Raises :class:`MonitoringError` when ``node_uids`` repeats a node.
        """
        if self._sweep is not None:
            return
        uids = _distinct(node_uids if node_uids is not None
                         else sorted(self.machines.machines))
        self._sweep = uids
        self.sim.process(self._run(uids), name="ganglia")

    def stop(self) -> None:
        self._sweep = None

    def _run(self, uids: list[str]) -> Generator[Timeout, Any, None]:
        while self._sweep is uids:
            self.sample_park(uids)
            yield self.sim.timeout(self.period_s)


class Kwapi:
    """Power monitoring through PDU outlets."""

    def __init__(self, sim: Simulator, machines: MachinePark,
                 testbed: TestbedDescription, services: ServiceHealth,
                 store: Optional[MetricStore] = None) -> None:
        self.sim = sim
        self.machines = machines
        self.services = services
        self.store = store if store is not None else MetricStore()
        #: documented wiring, node uid -> (pdu uid, port); the documentation
        #: never changes at runtime (only the *actual* cabling drifts), so
        #: this is safe to freeze.
        self._outlet_of: dict[str, tuple[str, int]] = {}
        self._site_of: dict[str, str] = {}
        for node in testbed.iter_nodes():
            self._outlet_of[node.uid] = (node.pdu.pdu_uid, node.pdu.port)
            self._site_of[node.uid] = node.site
        #: One power_w column per documented node.
        self._col = {uid: i for i, uid in enumerate(self._outlet_of)}
        self._block = self.store.add_block(
            [f"{uid}.power_w" for uid in self._outlet_of])

    def _actual_wiring(self) -> dict[tuple[str, int], SimulatedNode]:
        """One pass over the park: (pdu uid, port) actually cabled -> machine.

        Built fresh per sweep — cabling faults mutate ``machine.actual``
        in place, so this must never be cached across simulated events.
        """
        return {(m.actual.pdu_uid, m.actual.pdu_port): m
                for m in self.machines.machines.values()}

    def outlet_watts(self, pdu_uid: str, port: int) -> Optional[float]:
        """Raw measurement of one outlet: the draw of whatever machine is
        *actually* cabled there."""
        machine = self._actual_wiring().get((pdu_uid, port))
        return machine.power_draw_watts() if machine is not None else None

    def node_power_watts(self, node_uid: str) -> Optional[float]:
        """What the monitoring service *reports* for a node.

        Looks up the node's documented outlet and measures it; if cables
        were swapped this returns the neighbour's consumption.  Returns
        None when the site's kwapi is down or the outlet reads nothing.
        """
        if self._site_of.get(node_uid) in self.services.kwapi_down:
            return None
        desc_outlet = self._outlet_of.get(node_uid)
        if desc_outlet is None:
            return None
        value = self.outlet_watts(*desc_outlet)
        if value is not None:
            self._block.append(self._col[node_uid], self.sim.now, value)
        return value

    def sample_park(self, node_uids: Iterable[str]) -> int:
        """Measure every node's documented outlet in one sweep.

        The actual-cabling map is built once for the whole park instead of
        once per outlet, so a full sweep is O(nodes) rather than
        O(nodes^2), and the measurements land with one numpy scatter.  The
        reported values (including wrong-node readings from swapped
        cables) are identical to per-node calls.  Returns the number of
        measurements recorded; raises :class:`MonitoringError` when
        ``node_uids`` repeats a node.
        """
        wiring = self._actual_wiring()
        kwapi_down = self.services.kwapi_down
        cols: list[int] = []
        watts: list[float] = []
        for uid in _distinct(node_uids):
            if self._site_of.get(uid) in kwapi_down:
                continue
            desc_outlet = self._outlet_of.get(uid)
            if desc_outlet is None:
                continue
            machine = wiring.get(desc_outlet)
            if machine is None:
                continue
            cols.append(self._col[uid])
            watts.append(machine.power_draw_watts())
        self._block.append_rows(np.asarray(cols, dtype=np.intp), self.sim.now,
                                np.asarray(watts, dtype=np.float64))
        return len(cols)
