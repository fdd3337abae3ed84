"""``ExternalProtocolStrategy``: the wire protocol as a scheduling policy.

This is the bridge between the deterministic event kernel and a remote
scheduler.  It wraps the strategy the scenario names (``local``) and
hands only the test-cell decisions to the client, so from the
simulator's point of view a remote client is just another
:class:`~repro.scheduling.policies.SchedulingStrategy` — the launcher,
builder and campaign code are oblivious to the socket underneath.  The
local strategy's elastic round (grow/shrink of malleable jobs) runs
here, server-side, after the wire round on every tick: the order
:class:`~repro.scheduling.elastic.CommonPoolStrategy` uses in process.

It is not in the strategy registry: it needs a live session, so no
spec can name it.

Determinism argument, spelled out once:

* ``on_tick`` runs inside the scheduler's tick callback.  The blocking
  protocol exchange happens *before* the callback returns, so no other
  simulation event can fire while the client deliberates — the simulated
  clock is frozen exactly as it is for the in-process strategy.
* ``view.launch``/``view.defer`` are applied in message-arrival order.
  A client that decides cells in the presented (JOBN) order therefore
  reproduces the in-process decision sequence bit for bit.
* Launching a build only enqueues instant-queue work processed after the
  tick returns; availability numbers snapshotted into the JOBN lines
  stay valid for the whole round.

Build completions are buffered here and flushed as ``JCPL`` lines at the
start of the next round — they are informational (the scheduler's own
bookkeeping already handled backoff and cadence) and so may lag without
affecting behaviour.
"""

from __future__ import annotations

from ..scheduling.policies import SchedulingStrategy

__all__ = ["ExternalProtocolStrategy"]


class ExternalProtocolStrategy(SchedulingStrategy):
    """Delegate every tick's test-cell decisions to a protocol session;
    run ``local``'s elastic round, if it has one, in process."""

    def __init__(self, local: SchedulingStrategy, session):
        self.local = local
        self.policy = local.policy
        self.session = session
        self._elastic_tick = getattr(local, "elastic_tick", None)
        self._scheduler = None
        #: (completion time, cell id, build status) since the last round.
        self._completions: list[tuple[float, int, str]] = []

    def bind(self, scheduler) -> None:
        self._scheduler = scheduler
        self.local.bind(scheduler)

    def on_tick(self, view) -> None:
        due = view.due_cells()
        if due:
            # No due cells, nothing to decide: the round-trip is skipped.
            # Ticks with no due cells decide nothing for every strategy,
            # so eliding them cannot change behaviour — only wire traffic.
            completions, self._completions = self._completions, []
            self.session.decision_round(view, due, completions)
        if self._elastic_tick is not None:
            self._elastic_tick(view.scheduler.oar)

    def on_build_done(self, cell, build) -> None:
        self.local.on_build_done(cell, build)
        self._completions.append((
            self._scheduler.sim.now,
            self._scheduler.cell_ids[id(cell)],
            build.status.name,
        ))
