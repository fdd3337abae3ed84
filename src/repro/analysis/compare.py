"""Scenario-vs-baseline comparison of aggregated campaign metrics.

A sweep is usually a *question*: does doubling the testbed change the bug
count?  Does disabling the framework tank reliability?  This module turns
two aggregated scenarios into per-metric deltas, flagging which differences
are resolvable at 95 % confidence (the intervals do not overlap) and which
drown in seed noise.

Overlapping-CI is a conservative screen, not a t-test: non-overlap at 95 %
implies a significant difference, while overlap merely means "not resolved
at this seed count" — the honest phrasing for small sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # real imports are deferred: analysis loads during the
    # repro.core package's own import (the scheduler pulls in
    # BuildHistory), so a module-level import of core.batch or core.store
    # here would be a circular import.
    from ..core.batch import MetricSummary
    from ..core.store import CampaignRun

__all__ = ["MetricDelta", "ScoreboardRow", "compare_aggregates",
           "compare_runs", "format_comparison", "format_scoreboard",
           "scoreboard"]


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one scenario measured against the baseline."""

    metric: str
    baseline: "MetricSummary"
    other: "MetricSummary"
    #: ``other.mean - baseline.mean`` (NaN when either side has no sample).
    delta: float
    #: Relative change vs the baseline mean (NaN when undefined).
    pct: float
    #: True when the two 95 % intervals overlap (difference not resolved).
    ci_overlap: bool

    @property
    def significant(self) -> bool:
        """Resolved at 95 %: intervals disjoint, with real intervals on
        both sides.  A single-seed side has ci95 = 0 — a point, not an
        interval — so nothing can be resolved from it, only suggested."""
        return (not self.ci_overlap
                and not math.isnan(self.delta)
                and (self.baseline.n > 1 and self.other.n > 1))


def _delta(metric: str, base: "MetricSummary", other: "MetricSummary") -> MetricDelta:
    if base.n == 0 or other.n == 0:
        return MetricDelta(metric, base, other, float("nan"), float("nan"),
                           ci_overlap=True)
    delta = other.mean - base.mean
    pct = delta / abs(base.mean) if base.mean != 0 else float("nan")
    overlap = (base.mean - base.ci95 <= other.mean + other.ci95
               and other.mean - other.ci95 <= base.mean + base.ci95)
    return MetricDelta(metric, base, other, delta, pct, ci_overlap=overlap)


def compare_aggregates(
    aggregated: dict[str, dict[str, "MetricSummary"]],
    baseline: str,
    metrics: Optional[Sequence[str]] = None,
) -> dict[str, list[MetricDelta]]:
    """Delta of every non-baseline scenario against ``baseline``.

    ``aggregated`` is :func:`~repro.core.batch.aggregate_runs` output;
    ``metrics`` defaults to every scalar metric.  Returns
    ``{scenario: [MetricDelta, ...]}`` for every other scenario.
    """
    if metrics is None:
        from ..core.batch import SCALAR_METRICS
        metrics = SCALAR_METRICS
    if baseline not in aggregated:
        raise KeyError(
            f"baseline scenario {baseline!r} not in results "
            f"(have: {', '.join(sorted(aggregated)) or 'none'})")
    base = aggregated[baseline]
    out: dict[str, list[MetricDelta]] = {}
    for scenario, summaries in aggregated.items():
        if scenario == baseline:
            continue
        out[scenario] = [_delta(m, base[m], summaries[m]) for m in metrics]
    return out


def compare_runs(
    runs: Sequence["CampaignRun"],
    baseline: str,
    metrics: Optional[Sequence[str]] = None,
) -> dict[str, list[MetricDelta]]:
    """:func:`compare_aggregates` straight from raw campaign runs."""
    from ..core.batch import aggregate_runs
    return compare_aggregates(aggregate_runs(runs), baseline, metrics)


def format_comparison(deltas: dict[str, list[MetricDelta]],
                      baseline: str,
                      only_significant: bool = False) -> str:
    """Render comparison blocks, one per scenario.

    Lines are marked ``*`` when the difference is resolved at 95 % and
    ``~`` when the intervals overlap.  ``only_significant`` drops the
    unresolved lines.
    """
    lines = [f"baseline: {baseline}"]
    for scenario in sorted(deltas):
        lines.append(f"{scenario}  (Δ vs {baseline})")
        shown = 0
        for d in deltas[scenario]:
            if only_significant and not d.significant:
                continue
            shown += 1
            if math.isnan(d.delta):
                lines.append(f"  ~ {d.metric:<32} no sample")
                continue
            mark = "*" if d.significant else "~"
            pct = f" ({d.pct:+.0%})" if not math.isnan(d.pct) else ""
            lines.append(
                f"  {mark} {d.metric:<32} {d.other.mean:.2f} ± "
                f"{d.other.ci95:.2f} vs {d.baseline.mean:.2f} ± "
                f"{d.baseline.ci95:.2f}  Δ={d.delta:+.2f}{pct}")
        if shown == 0:
            lines.append("  (no metric resolved at 95 %)")
    return "\n".join(lines)


# -- policy scoreboard ---------------------------------------------------------

#: Secondary columns shown next to the ranking metric.
SCOREBOARD_EXTRAS: tuple[str, ...] = (
    "wait_mean_s", "node_utilization", "jobs_completed",
    "grow_events", "shrink_events")


@dataclass(frozen=True)
class ScoreboardRow:
    """One contender's line on the A/B policy scoreboard."""

    rank: int  # 1 = leader
    name: str
    summary: "MetricSummary"  # the ranking metric
    extras: dict[str, "MetricSummary"]
    #: ``mean - leader.mean`` (0 for the leader itself).
    delta_vs_leader: float
    #: Resolved at 95 % against the leader (CIs disjoint, n > 1 both sides).
    significant_vs_leader: bool


def scoreboard(
    aggregated: dict[str, dict[str, "MetricSummary"]],
    metric: str = "turnaround_mean_s",
    ascending: bool = True,
    extras: Sequence[str] = SCOREBOARD_EXTRAS,
) -> list[ScoreboardRow]:
    """Rank aggregated variants on one metric, leader first.

    ``aggregated`` is :func:`~repro.core.batch.aggregate_runs` output
    where each key is one contender (e.g. ``elastic-burst+common-pool``).
    ``ascending=True`` means lower is better (turnaround, wait);
    pass ``False`` for utilization-style metrics.  Each non-leader row is
    tested against the leader with the same conservative overlapping-CI
    screen :class:`MetricDelta` uses, so a ``significant_vs_leader`` row
    is a real resolved gap, not seed noise.  Variants with no sample for
    the metric sort to the bottom.
    """
    def sort_key(item: tuple[str, dict[str, "MetricSummary"]]):
        s = item[1][metric]
        no_sample = s.n == 0 or math.isnan(s.mean)
        mean = s.mean if not no_sample else math.inf
        return (no_sample, mean if ascending else -mean, item[0])

    for name, summaries in aggregated.items():
        if metric not in summaries:
            raise KeyError(f"unknown metric {metric!r} for {name!r} "
                           f"(have: {', '.join(sorted(summaries))})")
    ordered = sorted(aggregated.items(), key=sort_key)
    rows: list[ScoreboardRow] = []
    leader = ordered[0][1][metric] if ordered else None
    for rank, (name, summaries) in enumerate(ordered, start=1):
        s = summaries[metric]
        d = _delta(metric, leader, s)
        rows.append(ScoreboardRow(
            rank=rank,
            name=name,
            summary=s,
            extras={m: summaries[m] for m in extras if m in summaries},
            delta_vs_leader=0.0 if rank == 1 else d.delta,
            significant_vs_leader=False if rank == 1 else d.significant,
        ))
    return rows


def format_scoreboard(rows: Sequence[ScoreboardRow],
                      metric: str = "turnaround_mean_s") -> str:
    """Render the scoreboard as an aligned text table.

    The leader is marked ``►``; other rows carry ``*`` when their gap to
    the leader is resolved at 95 % and ``~`` when it drowns in seed noise.
    """
    if not rows:
        return "(empty scoreboard)"
    name_w = max(len(r.name) for r in rows)
    lines = [f"scoreboard on {metric} (► leader, * resolved at 95 %, "
             "~ unresolved)"]
    for r in rows:
        mark = "►" if r.rank == 1 else ("*" if r.significant_vs_leader else "~")
        if r.summary.n == 0 or math.isnan(r.summary.mean):
            body = "no sample"
        else:
            body = f"{r.summary.mean:12.2f} ± {r.summary.ci95:<8.2f}"
            if r.rank > 1 and not math.isnan(r.delta_vs_leader):
                body += f"  Δ={r.delta_vs_leader:+.2f}"
        extras = "  ".join(
            f"{m}={s.mean:.3g}" for m, s in r.extras.items()
            if s.n > 0 and not math.isnan(s.mean))
        line = f"  {r.rank}. {mark} {r.name:<{name_w}}  {body}"
        if extras:
            line += f"  [{extras}]"
        lines.append(line)
    return "\n".join(lines)
