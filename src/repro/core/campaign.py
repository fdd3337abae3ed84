"""Closed-loop campaign: months of simulated testbed operation.

This produces the paper's headline numbers:

* slide 22 — "118 bugs filed (inc. 84 already fixed)";
* slide 23 — "testbed reliability improving (85 % of tests successful in
  February ⇒ 93 % today, despite the addition of new tests)".

The loop: faults arrive (plus a pre-existing *backlog* — February started
with an unhealthy testbed), tests detect them, bugs get filed, operators
fix them, success rates climb.  The A2 ablation disables the framework and
watches faults accumulate instead.

:func:`run_scenario` is the entry point: it takes a declarative
:class:`~repro.scenarios.ScenarioSpec` (e.g. a named preset);
:func:`repro.core.batch.run_campaigns` fans a seed×scenario matrix over
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..scenarios.spec import ScenarioSpec
from ..scheduling.policies import SchedulingStrategy
from ..util.serialization import decode_dataclass, encode_dataclass
from ..util.simclock import DAY, MONTH, WEEK
from .builder import FrameworkBuilder
from .framework import TestingFramework

__all__ = ["CampaignReport", "run_scenario"]


@dataclass
class CampaignReport:
    months: float
    # slide-22 numbers
    bugs_filed: int
    bugs_fixed: int
    bugs_open: int
    bugs_unexplained: int
    faults_injected: int
    faults_detected: int
    faults_active_end: int
    detection_latency_days_median: float
    fix_time_days_median: float
    # slide-23 trend
    weekly_success_rates: list[tuple[float, float]]
    first_month_success: float
    last_month_success: float
    # load/scheduler behaviour
    total_builds: int
    unstable_builds: int
    weekly_active_faults: list[tuple[float, int]] = field(default_factory=list)
    bugs_by_family: dict[str, int] = field(default_factory=dict)
    # provenance: the spec name and seed the report came from
    scenario: str = ""
    seed: int = 0
    # elastic scheduling scoreboard: which strategy drove the run and how
    # the user workload fared under it (NaN means no finished user jobs)
    strategy: str = "default"
    jobs_completed: int = 0
    turnaround_mean_s: float = float("nan")
    wait_mean_s: float = float("nan")
    node_utilization: float = 0.0
    grow_events: int = 0
    shrink_events: int = 0

    def summary(self) -> str:
        head = f"campaign over {self.months:.1f} months"
        if self.scenario:
            head += f" [{self.scenario} @ seed {self.seed}]"
        lines = [
            head + ":",
            f"  bugs filed: {self.bugs_filed} (fixed: {self.bugs_fixed}, "
            f"open: {self.bugs_open}, unexplained: {self.bugs_unexplained})",
            f"  ground truth: {self.faults_injected} faults injected, "
            f"{self.faults_detected} detected, {self.faults_active_end} still active",
            "  detection latency (median): "
            f"{self.detection_latency_days_median:.1f} days",
            f"  success rate: {self.first_month_success:.0%} (first month) "
            f"-> {self.last_month_success:.0%} (last month)",
            f"  builds: {self.total_builds} total, "
            f"{self.unstable_builds} unstable (no resources)",
        ]
        return "\n".join(lines)

    # -- JSON codec (the campaign store archives reports as documents) --------

    def to_dict(self) -> dict:
        return encode_dataclass(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        return decode_dataclass(cls, data)


def run_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    months: Optional[float] = None,
    on_built: Optional[Callable[[TestingFramework], None]] = None,
    strategy: Optional[SchedulingStrategy] = None,
) -> tuple[TestingFramework, CampaignReport]:
    """Run one campaign described by ``spec``; returns the world + report.

    ``seed``/``months`` override the spec's values (the batch runner uses
    this to fan one preset across a seed matrix).  ``on_built`` fires with
    the wired world right before it starts — the hook instrumentation
    (e.g. the workload trace recorder) uses to observe a run from t=0.
    ``strategy`` is a scheduling-strategy instance attached in place of
    the one the spec names (the service layer's wire-protocol bridge).
    """
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if months is not None:
        overrides["months"] = months
    if overrides:
        spec = spec.derive(**overrides)
    fw = FrameworkBuilder(spec, strategy=strategy).build()
    if on_built is not None:
        on_built(fw)
    # February's backlog: the testbed is already unhealthy when testing starts.
    for _ in range(spec.backlog_faults):
        fw.injector.inject()
    fw.start(workload=True, faults=True, testing=spec.framework_enabled)

    horizon = spec.months * MONTH
    weekly_active: list[tuple[float, int]] = []
    t = 0.0
    while t < horizon:
        t = min(t + WEEK, horizon)
        fw.run_until(t)
        weekly_active.append((t, len(fw.ground_truth.active())))

    report = _build_report(fw, spec.months, weekly_active,
                           scenario=spec.name, seed=spec.seed,
                           strategy=spec.strategy)
    return fw, report


def _median_days(values: list[float]) -> float:
    if not values:
        return float("nan")
    return float(np.median(values)) / DAY


def _build_report(fw: TestingFramework, months: float,
                  weekly_active: list[tuple[float, int]],
                  scenario: str = "", seed: int = 0,
                  strategy: str = "default") -> CampaignReport:
    horizon = months * MONTH
    gt = fw.ground_truth
    tracker = fw.tracker
    history = fw.history
    weekly = history.weekly_success_series(until=horizon)
    first_month = history.success_rate(since=0.0, until=min(MONTH, horizon))
    last_month = history.success_rate(since=max(0.0, horizon - MONTH),
                                      until=horizon)
    bugs_by_family: dict[str, int] = {}
    for bug in tracker.bugs:
        bugs_by_family[bug.family] = bugs_by_family.get(bug.family, 0) + 1
    unstable = sum(1 for r in history.records if r.status == "UNSTABLE")
    # User-job scoreboard: every non-immediate job is workload (the
    # framework's own test jobs are immediate-or-cancel submissions).
    oar = fw.oar
    done = [j for j in oar.jobs.values()
            if not j.immediate and j.finished_at is not None
            and j.started_at is not None]
    turnaround = float(np.mean([j.finished_at - j.submitted_at
                                for j in done])) if done else float("nan")
    wait = float(np.mean([j.started_at - j.submitted_at
                          for j in done])) if done else float("nan")
    total_nodes = len(oar.db.node_uids())
    utilization = (oar.allocated_node_seconds(until=horizon)
                   / (total_nodes * horizon)) if total_nodes and horizon else 0.0
    return CampaignReport(
        months=months,
        bugs_filed=tracker.filed_count,
        bugs_fixed=tracker.fixed_count,
        bugs_open=tracker.open_count,
        bugs_unexplained=tracker.unexplained_count,
        faults_injected=len(gt.all),
        faults_detected=len(gt.detected()),
        faults_active_end=len(gt.active()),
        detection_latency_days_median=_median_days(gt.detection_latencies()),
        fix_time_days_median=_median_days(tracker.time_to_fix()),
        weekly_success_rates=weekly,
        first_month_success=first_month,
        last_month_success=last_month,
        total_builds=len(history.records),
        unstable_builds=unstable,
        weekly_active_faults=weekly_active,
        bugs_by_family=bugs_by_family,
        scenario=scenario,
        seed=seed,
        # The declarative strategy name, not the live object's: the wire
        # protocol's bridge wraps the spec's strategy and reproduces it
        # byte-for-byte, so the report must still match a local run.
        strategy=strategy,
        jobs_completed=len(done),
        turnaround_mean_s=turnaround,
        wait_mean_s=wait,
        node_utilization=utilization,
        grow_events=oar.grow_events,
        shrink_events=oar.shrink_events,
    )
