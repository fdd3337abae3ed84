"""Policies of the external test scheduler (slide 17).

The external tool "queries the job status and the testbed status, and
decides to submit a job based on: resources availability, retry policy
(exponential backoff), additional policies (peak hours, avoid several jobs
on same site)".  Each policy here is one of those clauses.

Two layers live here:

* :class:`SchedulerPolicy` — the declarative *knobs* (cadences, backoff
  shape, peak-hour avoidance).  Frozen data, part of
  :class:`~repro.scenarios.ScenarioSpec`, JSON-serializable.
* :class:`SchedulingStrategy` — the *decision procedure* that consumes
  those knobs at every scheduler tick.  A strategy sees the due test
  cells through a tick view and calls ``launch``/``defer`` on it;
  :class:`DefaultStrategy` reproduces the paper's availability-aware
  logic, and alternative strategies (a remote client speaking the wire
  protocol, future malleable policies) register under a name in
  :data:`the strategy registry <register_strategy>` and plug into
  :class:`~repro.scheduling.launcher.ExternalScheduler` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import TYPE_CHECKING, Type

from ..util.simclock import DAY, HOUR, is_peak_hours

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (launcher uses us)
    from ..ci.job import Build
    from .launcher import TestCell, TickView

__all__ = ["SchedulerPolicy", "Backoff", "SchedulingStrategy",
           "DefaultStrategy", "register_strategy", "get_strategy",
           "strategy_names"]


@dataclass(frozen=True)
class SchedulerPolicy:
    """Tunable knobs (the A3 ablation bench sweeps these)."""

    #: Re-run cadence of a cell after a completed build.  With 751 cells
    #: (448 of them deployments) these cadences keep the framework's own
    #: load at a few hundred builds per day, like the real instance.
    software_period_s: float = 3 * DAY
    hardware_period_s: float = 7 * DAY
    #: Exponential backoff after a blocked/unstable attempt.
    backoff_initial_s: float = 1 * HOUR
    backoff_factor: float = 2.0
    backoff_max_s: float = 4 * DAY
    #: Keep resource-hungry tests out of users' peak hours.
    avoid_peak_hours_for_hardware: bool = True
    #: At most this many framework builds in flight per site.
    max_concurrent_per_site: int = 1
    #: Check resources availability before triggering (skipping this is the
    #: naive baseline that wastes Jenkins workers — slide 16).
    check_resources_first: bool = True

    def allows_now(self, kind: str, t: float) -> bool:
        if kind == "hardware" and self.avoid_peak_hours_for_hardware:
            return not is_peak_hours(t)
        return True


class Backoff:
    """Exponential backoff state for one test cell."""

    __slots__ = ("_policy", "_current_s", "attempts")

    def __init__(self, policy: SchedulerPolicy):
        self._policy = policy
        self._current_s = policy.backoff_initial_s
        self.attempts = 0

    def next_delay(self) -> float:
        """Delay to wait after a failed attempt; grows exponentially."""
        delay = self._current_s
        self.attempts += 1
        self._current_s = min(self._current_s * self._policy.backoff_factor,
                              self._policy.backoff_max_s)
        return delay

    def reset(self) -> None:
        self._current_s = self._policy.backoff_initial_s
        self.attempts = 0


# -- strategy layer ------------------------------------------------------------


class SchedulingStrategy:
    """Decision procedure the external scheduler delegates each tick to.

    A strategy never touches the scheduler directly: it works against a
    :class:`~repro.scheduling.launcher.TickView`, reading the due cells
    and testbed availability and calling ``view.launch(cell)`` /
    ``view.defer(cell)``.  Decisions are applied immediately, in call
    order — that order is part of the deterministic execution trace, so
    two strategies making the same calls in the same order produce
    byte-identical campaigns.

    ``on_build_done`` is a pure observation hook (the scheduler keeps the
    backoff/cadence bookkeeping itself, identically for every strategy).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def bind(self, scheduler) -> None:
        """Called once when the strategy is attached to a scheduler."""

    def on_tick(self, view: "TickView") -> None:
        """Decide the fate of ``view.due_cells()`` at this instant."""
        raise NotImplementedError

    def on_build_done(self, cell: "TestCell", build: "Build") -> None:
        """Observe a finished build (after the scheduler's bookkeeping)."""


class DefaultStrategy(SchedulingStrategy):
    """The paper's in-process policy clauses, verbatim.

    For each due cell, in cell order: skip during peak hours (hardware
    tests, calendar gate — no backoff growth), skip when the per-site
    concurrency cap is reached, defer with exponential backoff when the
    resources are not available right now, otherwise launch.

    The tick visits only the cells it decides.  It merges, in cell order,
    the due runs of the scheduler's index (``view.due_runs()``) whose kind
    the gate allows on sites below the cap, and a site leaves the merge as
    soon as a launch brings it to the cap.  The cells it skips are exactly
    those the per-cell loop (kept in ``tests/scheduling/
    policies_reference.py``) passes over, so the ``launch``/``defer``
    calls and their order are the loop's:

    * the gate depends only on the family kind and the tick's instant, so
      its answer per kind is fixed within the tick (and asked once);
    * a site's in-flight count only rises within the tick: builds finish
      through kernel callbacks, never inside ``on_tick``, so a site at
      the cap stays there and one below it decides every due cell it
      reaches;
    * every decision takes the cell out of its run, and a ``defer`` moves
      it into the future, so no cell is visited twice.

    Each tick costs O(decisions + runs) rather than O(cells).
    """

    name = "default"

    def __init__(self, policy: SchedulerPolicy):
        self.policy = policy

    def on_tick(self, view: "TickView") -> None:
        policy = self.policy
        now = view.now
        cap = policy.max_concurrent_per_site
        check = policy.check_resources_first
        in_flight = view.in_flight
        cells = view.scheduler.cells
        allowed: dict[str, bool] = {}
        heads: list[tuple[int, list[int], str]] = []
        for site, runs in view.due_runs().items():
            if in_flight(site) >= cap:
                continue
            for kind, run in runs.items():
                if not run:
                    continue
                gate = allowed.get(kind)
                if gate is None:
                    gate = allowed[kind] = policy.allows_now(kind, now)
                if gate:  # else retry next tick; no backoff growth
                    heads.append((run[0], run, site))
        heapify(heads)
        while heads:
            cid, run, site = heads[0]
            if in_flight(site) >= cap:
                heappop(heads)  # a launch capped the site: it leaves
                continue
            cell = cells[cid]
            if check and not view.resources_available(cell):
                view.defer(cell)
            else:
                view.launch(cell)
            # the decision took ``cid`` out of ``run``: next head is run[0]
            if run:
                heapreplace(heads, (run[0], run, site))
            else:
                heappop(heads)


_STRATEGIES: dict[str, Type[SchedulingStrategy]] = {}


def register_strategy(cls: Type[SchedulingStrategy]
                      ) -> Type[SchedulingStrategy]:
    """Register a strategy class under its ``name`` (usable as decorator).

    Re-registering a name replaces the previous class (mirrors the
    subsystem registry's swap semantics)."""
    if not cls.name or cls.name == "abstract":
        raise ValueError(f"{cls.__name__} needs a non-abstract 'name'")
    _STRATEGIES[cls.name] = cls
    return cls


def get_strategy(name: str) -> Type[SchedulingStrategy]:
    """Look a strategy class up by name (KeyError lists the known names)."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduling strategy: {name!r}; known strategies: "
            f"{', '.join(strategy_names())}") from None


def strategy_names() -> list[str]:
    return sorted(_STRATEGIES)


register_strategy(DefaultStrategy)
