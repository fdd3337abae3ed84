"""The external test scheduler (slides 16-17).

Jenkins' time-based scheduling cannot cope with a heavily-used testbed:
hardware-centric tests need *all* nodes of a cluster, and "waiting for all
nodes of a given cluster to be available can take weeks".  One cannot just
submit-and-wait either, because that "would use a Jenkins worker" and
"compete with user requests".

This external tool therefore:

* keeps one *cell* per (family, configuration) with its own re-run cadence
  and exponential-backoff retry state;
* on every tick, queries **the testbed status** (free alive nodes per
  cluster/site via OAR) and **the job status** (builds in flight via
  Jenkins), and only triggers a build when the policies allow:
  resource availability, peak hours, per-site concurrency;
* relies on the test scripts' immediate-or-cancel OAR submissions: if the
  testbed job cannot start at once the build comes back UNSTABLE, and the
  cell backs off exponentially.

The per-node scheduling alternative (the paper's closing open question) is
in :mod:`repro.scheduling.pernode`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Any, Optional

from ..analysis.history import BuildHistory
from ..checksuite.base import CheckFamily
from ..ci.job import Build, BuildStatus
from ..ci.server import JenkinsServer
from ..oar.server import OarServer
from ..testbed.description import TestbedDescription
from ..util.events import Simulator
from .policies import Backoff, DefaultStrategy, SchedulerPolicy, \
    SchedulingStrategy

__all__ = ["TestCell", "TickView", "ExternalScheduler"]


@dataclass(eq=False)
class TestCell:
    """One (family, configuration) pair with its scheduling state."""

    family: CheckFamily
    config: dict[str, Any]
    site: str
    cluster: Optional[str]
    backoff: Backoff
    next_attempt_at: float = 0.0
    in_flight: bool = False
    runs: int = 0
    blocked_attempts: int = 0

    @property
    def job_name(self) -> str:
        return f"test_{self.family.name}"


class TickView:
    """What a :class:`SchedulingStrategy` sees and does at one tick.

    The view is a thin facade over the scheduler: reads (due cells,
    availability, per-site concurrency) are live, and ``launch``/``defer``
    apply immediately — a launch within the tick counts against the site's
    concurrency for the cells decided after it, exactly as the historical
    inline loop behaved.
    """

    __slots__ = ("scheduler", "now")

    def __init__(self, scheduler: "ExternalScheduler"):
        self.scheduler = scheduler
        self.now = scheduler.sim.now

    def due_cells(self) -> list[TestCell]:
        """Cells eligible for an attempt right now, in cell order: those
        not in flight whose ``next_attempt_at`` has come.  Read from the
        scheduler's due index (one C-level sort of its ascending per-site
        runs), so it costs O(due cells), not O(cells)."""
        scheduler = self.scheduler
        scheduler._drain(self.now)
        return list(map(scheduler.cells.__getitem__,
                        sorted(chain.from_iterable(scheduler._runs))))

    def due_runs(self) -> dict[str, dict[str, list[int]]]:
        """The due index: site -> family kind -> ascending ids of that
        site's due cells of that kind.  Together the runs hold exactly the
        cells of :meth:`due_cells`.  The lists are live: ``launch`` and
        ``defer`` take a cell out of its run at once."""
        self.scheduler._drain(self.now)
        return self.scheduler._due

    def cell_id(self, cell: TestCell) -> int:
        """Stable identifier of a cell (its index in construction order)."""
        return self.scheduler.cell_ids[id(cell)]

    def in_flight(self, site: str) -> int:
        return self.scheduler._in_flight_per_site.get(site, 0)

    def resources_available(self, cell: TestCell) -> bool:
        return self.scheduler.resources_available(cell)

    def availability(self, cell: TestCell) -> tuple[int, int]:
        """(alive, free-now) node counts of the cell's target set — the
        exact numbers :meth:`resources_available` decides on."""
        return self.scheduler.availability(cell)

    def cluster_states(self) -> list[tuple[str, str, int, int]]:
        """(cluster, site, alive, free-now) per cluster, testbed order."""
        return self.scheduler.cluster_states()

    def launch(self, cell: TestCell) -> None:
        self.scheduler._launch(cell)

    def defer(self, cell: TestCell) -> None:
        """Blocked attempt: grow the cell's exponential backoff."""
        cell.blocked_attempts += 1
        cell.next_attempt_at = self.now + cell.backoff.next_delay()
        self.scheduler._reindex(cell)


class ExternalScheduler:
    """Availability-aware build launcher over Jenkins + OAR.

    The scheduler keeps a *due index* so a tick never rescans every cell.
    Each cell not in flight is in exactly one of two places:

    * a *due run* — per (site, family kind), the ascending ids of the
      cells whose ``next_attempt_at`` has come;
    * the *future heap* of ``(next_attempt_at, cell id, version)``.

    A cell in flight is in neither.  ``_launch``, ``_on_done`` and
    ``TickView.defer`` are the only writers of ``in_flight`` and
    ``next_attempt_at``, and each ends with :meth:`_reindex`, which takes
    the cell out of its run and, unless it is in flight, pushes it on the
    heap under a new version; heap entries of an older version are stale
    and skipped.  :meth:`_drain` moves the heap entries whose time has
    come into their runs; the tick view calls it before every read, so
    the runs always hold exactly the cells a scan of ``cells`` would call
    due.
    """

    def __init__(
        self,
        sim: Simulator,
        jenkins: JenkinsServer,
        oar: OarServer,
        testbed: TestbedDescription,
        families: list[CheckFamily],
        policy: SchedulerPolicy = SchedulerPolicy(),
        tick_s: float = 300.0,
        strategy: Optional[SchedulingStrategy] = None,
    ):
        self.sim = sim
        self.jenkins = jenkins
        self.oar = oar
        self.testbed = testbed
        self.policy = policy
        self.tick_s = tick_s
        #: Every finished build, in completion order.
        self.history = BuildHistory()
        self.cells: list[TestCell] = []
        self._in_flight_per_site: dict[str, int] = {}
        self._site_of_cluster = {c.uid: c.site for c in testbed.iter_clusters()}
        # Each cell's target node set as a bitmask (bit order == OAR
        # database order == the park's alive mask): alive and free-now
        # counts are popcounts of the target ANDed with the alive mask and
        # one availability-profile query.
        gantt = oar.gantt
        self._cluster_masks = {c.uid: gantt.mask_for(n.uid for n in c.nodes)
                               for c in testbed.iter_clusters()}
        self._site_masks = {
            site.uid: gantt.mask_for(n.uid for c in site.clusters for n in c.nodes)
            for site in testbed.sites}
        for family in families:
            for config in family.configurations(testbed):
                cluster = config.get("cluster")
                site = config.get("site") or self._site_of_cluster[cluster]
                self.cells.append(TestCell(
                    family=family, config=config, site=site, cluster=cluster,
                    backoff=Backoff(policy),
                ))
        #: id(cell) -> stable cell index (the wire protocol's cell id).
        self.cell_ids = {id(c): i for i, c in enumerate(self.cells)}
        #: The due index (see the class docstring): ``_due[site][kind]``
        #: is a run, ``_runs`` all runs, ``_run_of[cell id]`` a cell's run.
        self._due: dict[str, dict[str, list[int]]] = {}
        self._run_of = [self._due.setdefault(c.site, {})
                        .setdefault(c.family.kind, []) for c in self.cells]
        self._runs = [run for runs in self._due.values()
                      for run in runs.values()]
        self._version = [0] * len(self.cells)
        self._future = [(c.next_attempt_at, i, 0)
                        for i, c in enumerate(self.cells)]
        heapify(self._future)
        self.strategy = strategy if strategy is not None \
            else DefaultStrategy(policy)
        self.strategy.bind(self)
        self._running = False
        self._proc = None

    # -- testbed status queries ----------------------------------------------

    def _target(self, cell: TestCell) -> int:
        """Bitmask of a cell's target node set."""
        if cell.cluster is not None:
            return self._cluster_masks[cell.cluster]
        return self._site_masks[cell.site]

    def _counts(self, mask: int) -> tuple[int, int]:
        """(alive, free-now) node counts of ``mask``: free-now means alive
        and not reserved over the next minute (short horizon probe)."""
        now = self.sim.now
        alive = mask & self.oar.machines.alive_mask
        free = self.oar.gantt.profile_free_mask(alive, now, now + 60.0)
        return alive.bit_count(), free.bit_count()

    def resources_available(self, cell: TestCell) -> bool:
        need = cell.family.nodes_needed
        if need == 0:
            return True
        alive, free = self._counts(self._target(cell))
        if need == "ALL":
            return alive > 0 and free == alive
        return free >= int(need)

    def availability(self, cell: TestCell) -> tuple[int, int]:
        """(alive, free-now) counts over the cell's target node set."""
        return self._counts(self._target(cell))

    def cluster_states(self) -> list[tuple[str, str, int, int]]:
        """(cluster, site, alive, free-now) per cluster, in testbed order
        (the ds-sim-style ``GETS servers`` answer)."""
        return [(c.uid, c.site, *self._counts(self._cluster_masks[c.uid]))
                for c in self.testbed.iter_clusters()]

    # -- main loop ------------------------------------------------------------

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._proc = self.sim.process(self._run(), name="external-scheduler")

    def stop(self) -> None:
        """Stop promptly: interrupt the tick sleep instead of letting the
        process linger until its next timeout fires."""
        self._running = False
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("stopped")
        self._proc = None

    def _run(self):
        while self._running:
            self._tick()
            yield self.sim.timeout(self.tick_s)

    def _tick(self) -> None:
        self.strategy.on_tick(TickView(self))

    # -- the due index ---------------------------------------------------------

    def _reindex(self, cell: TestCell) -> None:
        """File ``cell`` where its state puts it, after a write to its
        ``in_flight`` or ``next_attempt_at``: out of its due run, and on
        the future heap unless in flight.  The heap entry waits for
        :meth:`_drain` even when its time has already come, so a cell
        deferred during a tick is not offered again in the same pass."""
        cid = self.cell_ids[id(cell)]
        run = self._run_of[cid]
        i = bisect_left(run, cid)
        if i < len(run) and run[i] == cid:
            del run[i]
        version = self._version[cid] = self._version[cid] + 1
        if not cell.in_flight:
            heappush(self._future, (cell.next_attempt_at, cid, version))

    def _drain(self, now: float) -> None:
        """Move every cell whose ``next_attempt_at`` is at or before
        ``now`` from the future heap into its due run."""
        future = self._future
        version = self._version
        while future and future[0][0] <= now:
            _, cid, v = heappop(future)
            if v == version[cid]:
                insort(self._run_of[cid], cid)

    def _launch(self, cell: TestCell) -> None:
        cell.in_flight = True
        cell.runs += 1
        self._in_flight_per_site[cell.site] = \
            self._in_flight_per_site.get(cell.site, 0) + 1
        self._reindex(cell)
        build = self.jenkins.trigger(cell.job_name, parameters=cell.config,
                                     cause="external-scheduler")
        build.done_event.add_callback(lambda ev, c=cell: self._on_done(c, ev.value))

    def _on_done(self, cell: TestCell, build: Build) -> None:
        cell.in_flight = False
        self._in_flight_per_site[cell.site] -= 1
        if build.status in (BuildStatus.UNSTABLE, BuildStatus.ABORTED):
            # Could not get resources (or timed out): exponential backoff.
            cell.next_attempt_at = self.sim.now + cell.backoff.next_delay()
        else:
            cell.backoff.reset()
            period = (self.policy.hardware_period_s
                      if cell.family.kind == "hardware"
                      else self.policy.software_period_s)
            cell.next_attempt_at = self.sim.now + period
        self._reindex(cell)
        self.strategy.on_build_done(cell, build)
        self.history.record(cell, build)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "cells": len(self.cells),
            "in_flight": sum(1 for c in self.cells if c.in_flight),
            "total_runs": sum(c.runs for c in self.cells),
            "total_blocked": sum(c.blocked_attempts for c in self.cells),
        }
