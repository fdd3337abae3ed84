"""Synthetic user workload: keeps the testbed realistically busy.

Slide 16's scheduling problem only exists because "resources are heavily
used": test jobs compete with ~550 users.  The generator reproduces that
contention with a non-homogeneous Poisson arrival process (diurnal +
weekday modulation), a long-tailed job-size mix and lognormal walltimes.

Calibration: ``target_utilization`` sets the mean requested load as a
fraction of total node capacity; the default 0.7 makes single-node jobs
start immediately most of the time while whole-cluster requests wait for
a long time — the regime the paper describes.

:class:`WorkloadSource` is the interface every workload backend satisfies
(this Poisson generator, the trace replay in :mod:`repro.oar.traces`):
``start()``/``stop()`` manage the submission process, ``submitted`` counts
jobs, and ``on_submit`` callbacks observe every submitted job (that is how
the trace recorder exports a run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..testbed.description import TestbedDescription
from ..util.events import Process, Simulator
from ..util.rng import RngStreams
from ..util.simclock import HOUR, is_peak_hours, is_weekend
from .jobs import Job
from .server import OarServer

__all__ = ["WorkloadConfig", "WorkloadSource", "WorkloadGenerator"]

#: (node count, probability) — long tail of small jobs, occasional wide ones.
_SIZE_MIX: tuple[tuple[int, float], ...] = (
    (1, 0.50),
    (2, 0.15),
    (4, 0.12),
    (8, 0.10),
    (16, 0.08),
    (32, 0.05),
)


@dataclass(frozen=True)
class WorkloadConfig:
    target_utilization: float = 0.7
    mean_walltime_s: float = 3.0 * HOUR
    #: Arrival-rate multipliers by calendar regime.
    peak_factor: float = 1.7
    offpeak_factor: float = 0.6
    weekend_factor: float = 0.35


class WorkloadSource:
    """Base class for processes feeding user jobs to an :class:`OarServer`.

    Subclasses implement :meth:`_run` (a generator submitting jobs on its
    own schedule) and call :meth:`_notify_submitted` for every job.
    """

    process_name = "workload"

    def __init__(self, sim: Simulator, oar: OarServer):
        self.sim = sim
        self.oar = oar
        self.submitted = 0
        #: Observers fired with every submitted :class:`Job` (trace recorder).
        self.on_submit: list[Callable[[Job], None]] = []
        self._running = False
        self._proc: Optional[Process] = None

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._proc = self.sim.process(self._run(), name=self.process_name)

    def stop(self) -> None:
        """Stop promptly: interrupt the pending inter-arrival sleep instead
        of leaving the process asleep until its next timeout fires (which
        could be a full inter-arrival draw after campaign end)."""
        self._running = False
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("stopped")
        self._proc = None

    def _run(self):
        raise NotImplementedError

    def _notify_submitted(self, job: Job) -> None:
        for callback in self.on_submit:
            callback(job)


class WorkloadGenerator(WorkloadSource):
    """Poisson job-arrival process feeding an :class:`OarServer`."""

    def __init__(
        self,
        sim: Simulator,
        oar: OarServer,
        testbed: TestbedDescription,
        rng_streams: RngStreams,
        config: WorkloadConfig = WorkloadConfig(),
    ):
        super().__init__(sim, oar)
        self.config = config
        self._rng = rng_streams.stream("workload")
        self._clusters = [c.uid for c in testbed.iter_clusters()]
        self._cluster_sizes = np.array(
            [c.node_count for c in testbed.iter_clusters()], dtype=float
        )
        self._cluster_weights = self._cluster_sizes / self._cluster_sizes.sum()
        self._total_nodes = int(self._cluster_sizes.sum())
        self._sizes = np.array([s for s, _ in _SIZE_MIX])
        self._size_probs = np.array([p for _, p in _SIZE_MIX])
        self._cluster_cdf = _cdf(self._cluster_weights)
        self._size_cdf = _cdf(self._size_probs)
        self._mean_interarrival_s = self._calibrate()

    def _calibrate(self) -> float:
        """Mean inter-arrival so that requested node-time matches target."""
        mean_nodes = float((self._sizes * self._size_probs).sum())
        # Actual run time averages ~0.65 x walltime (jobs finish early).
        mean_busy_s = 0.65 * self.config.mean_walltime_s
        node_seconds_per_job = mean_nodes * mean_busy_s
        capacity_per_s = self._total_nodes * self.config.target_utilization
        return node_seconds_per_job / capacity_per_s

    # -- arrival process ---------------------------------------------------------

    def rate_factor(self, t: float) -> float:
        if is_weekend(t):
            return self.config.weekend_factor
        return self.config.peak_factor if is_peak_hours(t) else self.config.offpeak_factor

    def _run(self):
        # Thinning-free approximation: scale the exponential inter-arrival
        # by the regime factor at the draw time (regimes last hours, draws
        # are minutes apart, so the bias is negligible).
        while self._running:
            factor = max(self.rate_factor(self.sim.now), 1e-6)
            delay = float(self._rng.exponential(self._mean_interarrival_s / factor))
            yield self.sim.timeout(delay)
            if not self._running:
                return
            self.submit_one()

    # -- job synthesis --------------------------------------------------------------

    def submit_one(self):
        """Draw and submit one synthetic user job."""
        rng = self._rng
        cluster_idx = _draw(rng, self._cluster_cdf)
        cluster = self._clusters[cluster_idx]
        size = int(self._sizes[_draw(rng, self._size_cdf)])
        size = min(size, int(self._cluster_sizes[cluster_idx]))
        walltime = float(np.clip(
            rng.lognormal(mean=np.log(self.config.mean_walltime_s), sigma=0.6),
            0.25 * HOUR, 24 * HOUR,
        ))
        duration = walltime * float(rng.uniform(0.3, 1.0))
        request = f"cluster='{cluster}'/nodes={size},walltime={_fmt(walltime)}"
        self.submitted += 1
        job = self.oar.submit(request, user=f"user{self.submitted % 550}",
                              auto_duration=duration)
        self._notify_submitted(job)
        return job


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(n, p=p)`` draws against (built once)."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One index drawn like ``rng.choice(len(cdf), p=p)`` with
    ``cdf = _cdf(p)``: one ``random()`` looked up in the CDF is numpy's own
    algorithm, so the variate and the generator's state afterwards are
    those of ``choice``, without its per-call checks and CDF build."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _fmt(seconds: float) -> str:
    total = int(seconds)
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"
