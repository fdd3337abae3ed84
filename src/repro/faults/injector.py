"""Poisson fault injector and ground-truth registry.

The real testbed accumulates problems continuously: maintenance operations
reset BIOS options, replacement disks arrive with different firmware, cables
get re-seated wrong, upgrades break services (slide 12).  The injector
models that as a Poisson arrival process over the weighted fault catalog.

The :class:`GroundTruth` registry records every injected fault so campaigns
can score the framework: detection latency, fraction detected, bugs fixed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from ..util.events import Simulator
from ..util.rng import RngStreams
from .catalog import (
    FAULT_SPECS,
    FaultContext,
    FaultInstance,
    FaultKind,
    apply_fault,
    revert_fault,
)

__all__ = ["GroundTruth", "FaultInjector"]


class GroundTruth:
    """Registry of all fault instances ever injected."""

    def __init__(self) -> None:
        self._faults: list[FaultInstance] = []

    def record(self, instance: FaultInstance) -> None:
        self._faults.append(instance)

    @property
    def all(self) -> tuple[FaultInstance, ...]:
        return tuple(self._faults)

    def active(self) -> list[FaultInstance]:
        return [f for f in self._faults if f.active]

    def active_matching(self, kind: FaultKind, target: str) -> Optional[FaultInstance]:
        for f in self._faults:
            if f.matches(kind, target):
                return f
        return None

    def detected(self) -> list[FaultInstance]:
        return [f for f in self._faults if f.detected]

    def mark_detected(self, instance: FaultInstance, when: float, by: str) -> None:
        if instance.detected_at is None:
            instance.detected_at = when
            instance.detected_by = by

    def detection_latencies(self) -> list[float]:
        return [f.detected_at - f.injected_at for f in self._faults if f.detected]


class FaultInjector:
    """Injects faults at exponential inter-arrival times.

    Parameters
    ----------
    mean_interarrival_s:
        Mean time between fault arrivals across the whole testbed.  The
        default (about one fault every 20 hours) yields bug counts in the
        paper's band over a five-month campaign.
    kinds:
        Restrict injection to a subset of fault kinds (useful in tests
        and focused experiments).
    on_inject:
        Optional callback invoked with each new :class:`FaultInstance`.
    """

    def __init__(
        self,
        sim: Simulator,
        ctx: FaultContext,
        rng_streams: RngStreams,
        mean_interarrival_s: float = 72_000.0,
        kinds: Optional[Iterable[FaultKind]] = None,
        on_inject: Optional[Callable[[FaultInstance], None]] = None,
    ):
        self.sim = sim
        self.ctx = ctx
        self.ground_truth = GroundTruth()
        self.mean_interarrival_s = mean_interarrival_s
        self._rng = rng_streams.stream("fault-injector")
        self._kinds = tuple(kinds) if kinds is not None else tuple(FAULT_SPECS)
        self._weights = np.array([FAULT_SPECS[k].weight for k in self._kinds])
        self._weights = self._weights / self._weights.sum()
        self._on_inject = on_inject
        self._next_id = 1
        self._running = False

    # -- one-shot injection (used by tests, examples, campaigns) -------------

    def inject(self, kind: Optional[FaultKind] = None) -> Optional[FaultInstance]:
        """Inject one fault now; returns None if no eligible target exists."""
        if kind is None:
            kind = self._kinds[int(self._rng.choice(len(self._kinds), p=self._weights))]
        instance = apply_fault(kind, self.ctx, self._rng, self._next_id, self.sim.now)
        if instance is None:
            return None
        self._next_id += 1
        self.ground_truth.record(instance)
        if self._on_inject is not None:
            self._on_inject(instance)
        return instance

    def fix(self, instance: FaultInstance) -> None:
        """Revert a fault (operator action); records the fix time."""
        revert_fault(instance, self.ctx)
        instance.fixed_at = self.sim.now

    # -- background process ------------------------------------------------------

    def start(self) -> None:
        """Start the Poisson arrival process (idempotent)."""
        if not self._running:
            self._running = True
            self.sim.process(self._run(), name="fault-injector")

    def stop(self) -> None:
        self._running = False

    def _run(self):
        while self._running:
            delay = float(self._rng.exponential(self.mean_interarrival_s))
            yield self.sim.timeout(delay)
            if not self._running:
                return
            # A draw may find no eligible target (e.g. every site already
            # has a flaky API); try a couple of other kinds before giving up
            # this arrival.
            for _ in range(3):
                if self.inject() is not None:
                    break
