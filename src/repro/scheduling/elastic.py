"""Malleable scheduling policies: the grow/shrink decision procedures.

The OAR layer provides the *mechanism* — ``grow``/``shrink``/
``evict_dead_nodes`` on :class:`~repro.oar.server.OarServer`, all ordinary
deterministic kernel events guarded by the job's generation counter.  This
module provides the *policies* that drive it, registered in the ordinary
strategy registry so a scenario selects one by name
(``ScenarioSpec.strategy``):

* ``easy-backfill`` — the rigid baseline: jobs run at their preferred
  width from start to finish, exactly the historical behaviour (and
  byte-identical to ``default``).  Malleable width ranges are ignored, so
  an A/B against it holds contention constant.
* ``common-pool`` — treat idle capacity as a common pool: running
  malleable jobs expand into nodes that are free through their walltime
  deadline (one node per job per round, round-robin in FCFS order, so the
  pool is shared fairly).  Growing never displaces a reservation — only
  capacity nothing else could use before the grower's deadline — so it
  runs every tick; on queue pressure every job above its preferred width
  is first clipped back so the reclaimed nodes immediately re-plan queued
  work forward.
* ``steal-agreement`` — everything common-pool does, plus an explicit
  negotiation for queued jobs: a queued job short of nodes asks the
  running malleable jobs to cede width down toward their minimum.  The
  agreement is all-or-nothing — donors only shrink when their combined
  cedeable width covers the deficit — and each donor keeps enough width
  to still finish inside its walltime (the feasibility floor), so a steal
  never converts a finishing job into a walltime kill.  A tick's
  agreements are settled FCFS against a ledger of the nodes already
  promised to earlier queued jobs, and the queue is re-placed once, after
  the whole round.

Every decision runs inside the scheduler tick (the simulated clock is
frozen), iterates jobs in job-id order, and picks nodes in deterministic
database order — two runs of the same scenario make byte-identical calls.
A tick makes at most one ``replan_now`` pass, over every node it freed.

Test-cell decisions are inherited from :class:`DefaultStrategy` unchanged:
elastic policies govern *user* jobs and leave the framework's own
launch/defer behaviour alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..oar.server import _lowest_bits
from .policies import DefaultStrategy, register_strategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..oar.jobs import Job
    from ..oar.server import OarServer
    from .launcher import TickView

__all__ = ["EasyBackfillStrategy", "CommonPoolStrategy",
           "StealAgreementStrategy"]


def _running_malleable(oar: "OarServer") -> list["Job"]:
    """Running malleable jobs in job-id (FCFS) order."""
    return [j for j in oar.running_jobs() if j.malleable]


@register_strategy
class EasyBackfillStrategy(DefaultStrategy):
    """Rigid baseline with reservations: never grows or shrinks.

    The underlying OAR scheduler already runs FCFS with conservative
    backfilling; this strategy simply leaves every job at its preferred
    width, which makes it the identical-contention baseline for the
    malleable policies (same submissions, same placements, same ticks).
    """

    name = "easy-backfill"


@register_strategy
class CommonPoolStrategy(DefaultStrategy):
    """Expand running malleable jobs into the idle pool; reclaim on queue
    pressure."""

    name = "common-pool"

    #: A reservation further than this away counts as queue pressure.
    queue_slack_s = 60.0

    def on_tick(self, view: "TickView") -> None:
        super().on_tick(view)  # test-cell decisions, unchanged
        self.elastic_tick(view.scheduler.oar)

    def elastic_tick(self, oar: "OarServer") -> None:
        """One elastic round: evict dead nodes, on queue pressure reclaim
        and negotiate width, re-place the queue once, then expand.

        Every node freed in the tick goes into one mask, so the queue is
        re-placed by a single ``replan_now`` pass per tick."""
        self._evict_dead(oar)
        pressure = oar.queued_jobs(self.queue_slack_s)
        if pressure:
            freed = self._reclaim(oar) | self._negotiate(oar, pressure)
            if freed:
                oar.replan_now(freed)
        # Expanding is safe even under pressure: grow only claims nodes
        # free through the job's whole walltime window, so no reservation
        # (queued job) is ever displaced — only capacity nothing else
        # could use before the grower's deadline.  The extra width burns
        # the job's remaining mass faster, so it finishes and frees its
        # whole allocation earlier.
        self._expand(oar)

    # -- shared building blocks ------------------------------------------------

    def _evict_dead(self, oar: "OarServer") -> None:
        """Release dead nodes held by malleable jobs (shrink past them, or
        re-queue at FCFS rank when the job would fall below its minimum)."""
        for job in _running_malleable(oar):
            oar.evict_dead_nodes(job)

    def _reclaim(self, oar: "OarServer") -> int:
        """Clip every malleable job back to its preferred width; returns
        the freed mask for the tick's replan."""
        freed = 0
        for job in _running_malleable(oar):
            extra = job.width - job.request.parts[0].count
            if extra > 0:
                freed |= oar.shrink(job, extra, replan=False)
        return freed

    def _negotiate(self, oar: "OarServer", queued: list["Job"]) -> int:
        """Hook for policies that bargain width away from running jobs on
        behalf of the queue; returns the freed mask.  Common-pool only
        reclaims."""
        return 0

    def _expand(self, oar: "OarServer") -> None:
        """Round-robin grow: one node per job per round until the pool or
        every job's headroom is exhausted.

        Each job's grow candidates are asked for once, as a mask.  A grant
        reserves its node from now to the grower's deadline, so the node
        leaves every other job's candidates too; nothing else touches the
        profile or the alive mask between grants, so a job's candidates in
        any round are its first answer minus the nodes granted so far.
        """
        growers = []  # [job, candidate mask, headroom], FCFS order
        for job in _running_malleable(oar):
            headroom = job.max_nodes - job.width
            if headroom > 0:
                growers.append([job, oar.grow_candidates(job), headroom])
        taken = 0
        while growers:
            for grower in growers:
                free = grower[1] & ~taken
                if free:
                    low = free & -free
                    oar.grow(grower[0], low)
                    taken |= low
                    grower[2] -= 1
            growers = [g for g in growers if g[2] and g[1] & ~taken]


@register_strategy
class StealAgreementStrategy(CommonPoolStrategy):
    """Common-pool plus queued jobs negotiating nodes away from running
    malleable jobs above their minimum."""

    name = "steal-agreement"

    def _negotiate(self, oar: "OarServer", queued: list["Job"]) -> int:
        """One steal round, FCFS over the queued jobs, settled against a
        running ledger; returns the freed mask.

        ``claimed`` holds the nodes the round has already promised to an
        earlier queued job: free nodes a job can start on, and nodes its
        donors ceded.  For each queued single-part job, the matching nodes
        free right now and not yet claimed either cover its count (it
        claims its lowest ones) or leave a deficit it asks the running
        malleable jobs (again FCFS) to cede from nodes it can use.
        All-or-nothing: donors only shrink when the combined offer covers
        the deficit, so a failed negotiation leaves every allocation
        untouched.

        Nothing is re-placed here: the tick's single replan hands the
        freed nodes to the queue in FCFS order.  The donor table is built
        once, on the first deficit, and each agreement updates its donors'
        entries in place — ``now`` is frozen and a shrink only settles
        mass, so a donor's feasibility floor holds for the whole round.
        """
        now = oar.sim.now
        gantt = oar.gantt
        donors = None
        claimed = 0
        freed = 0
        for job in queued:
            if len(job.request.parts) != 1:
                continue
            part = job.request.parts[0]
            if not isinstance(part.count, int):
                continue  # nodes=ALL cannot be bargained for
            # The alive matching nodes: the only ones the job can use.
            usable = oar.matching_mask(part.expr) & oar.machines.alive_mask
            if not usable:
                continue
            window = max(job.walltime_s, 1.0)
            free = gantt.profile_free_mask(usable, now,
                                           now + window) & ~claimed
            deficit = part.count - free.bit_count()
            if deficit <= 0:
                # The replan can place it: its lowest free nodes are taken.
                claimed |= _lowest_bits(free, part.count)
                continue
            if donors is None:
                donors = self._donor_table(oar, now)
            offered = 0
            for _, room, dmask in donors:
                offered += min((dmask & usable).bit_count(), room)
                if offered >= deficit:
                    break
            else:
                continue  # no agreement: nobody cedes anything
            offered = 0
            for entry in donors:
                donor, room, dmask = entry
                # Only nodes the queued job can actually use: shrink's
                # tail-first walk restricted to ``usable`` picks them
                # newest first.
                give = min(room, deficit - offered,
                           (dmask & usable).bit_count())
                if not give:
                    continue
                gone = oar.shrink(donor, give, prefer=usable, replan=False)
                entry[1:] = room - give, dmask & ~gone
                freed |= gone
                claimed |= gone
                offered += give
                if offered >= deficit:
                    break
            claimed |= free
        return freed

    def _donor_table(self, oar: "OarServer", now: float) -> list[list]:
        """``[donor, cedeable width, allocation mask]`` for every running
        malleable job above its feasibility floor, FCFS."""
        table = []
        for donor in _running_malleable(oar):
            room = donor.width - self._feasible_floor(donor, now)
            if room > 0:
                table.append(
                    [donor, room, oar.gantt.mask_for(donor.assignment[0])])
        return table

    @staticmethod
    def _feasible_floor(donor: "Job", now: float) -> int:
        """Narrowest width at which the donor still finishes in walltime.

        Below this, a steal would turn a job that was going to finish into
        a walltime kill — a trade no agreement should make.
        """
        floor = donor.min_nodes
        if donor.auto_duration is None:
            return floor
        deadline = donor.started_at + donor.walltime_s
        wall_left = deadline - now
        if wall_left <= 0:
            return donor.width
        if donor.mass_remaining is not None:
            mass = donor.mass_remaining \
                - (now - donor.mass_accrued_at) * donor.width
        else:
            mass = (donor.auto_duration
                    - (now - donor.started_at)) * donor.width
        if mass <= 0:
            return floor
        return max(floor, min(donor.width,
                              math.ceil(mass / wall_left - 1e-9)))
