"""Build-result history: the data behind the status page and trends.

The paper's requirements (slide 18): per-test status across all
sites/clusters, per-site/per-cluster status across tests, and a
*historical perspective* — the 85 % → 93 % reliability trend of slide 23
is computed from exactly this record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..util.simclock import WEEK

__all__ = ["BuildRecord", "BuildHistory"]


@dataclass(frozen=True)
class BuildRecord:
    finished_at: float
    family: str
    site: str
    cluster: Optional[str]
    config_key: str  # canonical cell key, e.g. "cluster=grisou" or "image=...|cluster=..."
    status: str  # SUCCESS / UNSTABLE / FAILURE / ABORTED
    duration_s: Optional[float]


def _config_key(config: dict) -> str:
    return "|".join(f"{k}={config[k]}" for k in sorted(config))


class BuildHistory:
    """Append-only store of finished framework builds."""

    def __init__(self) -> None:
        self.records: list[BuildRecord] = []

    def record(self, cell, build) -> None:
        """Append one finished build (the external scheduler calls it)."""
        self.records.append(BuildRecord(
            finished_at=build.finished_at,
            family=cell.family.name,
            site=cell.site,
            cluster=cell.cluster,
            config_key=_config_key(cell.config),
            status=build.status.value,
            duration_s=build.duration_s,
        ))

    def __len__(self) -> int:
        return len(self.records)

    # -- selections ------------------------------------------------------------

    def select(self, family: Optional[str] = None, site: Optional[str] = None,
               cluster: Optional[str] = None, since: float = 0.0,
               until: float = float("inf")) -> list[BuildRecord]:
        return [
            r for r in self.records
            if (family is None or r.family == family)
            and (site is None or r.site == site)
            and (cluster is None or r.cluster == cluster)
            and since <= r.finished_at < until
        ]

    def latest_per_cell(self, since: float = 0.0) -> dict[tuple[str, str], BuildRecord]:
        """Most recent record per (family, config) cell."""
        latest: dict[tuple[str, str], BuildRecord] = {}
        for r in self.records:
            if r.finished_at < since:
                continue
            key = (r.family, r.config_key)
            if key not in latest or r.finished_at > latest[key].finished_at:
                latest[key] = r
        return latest

    # -- the headline metric -------------------------------------------------------

    @staticmethod
    def _rate(records: list[BuildRecord], count_unstable: bool) -> float:
        considered = [r for r in records
                      if count_unstable or r.status != "UNSTABLE"]
        if not considered:
            return float("nan")
        ok = sum(1 for r in considered if r.status == "SUCCESS")
        return ok / len(considered)

    def success_rate(self, since: float = 0.0, until: float = float("inf"),
                     count_unstable: bool = False, **filters) -> float:
        """Fraction of successful test runs in a window.

        UNSTABLE builds (could not get resources) are excluded by default:
        they say nothing about testbed health, only about contention.
        """
        return self._rate(self.select(since=since, until=until, **filters),
                          count_unstable)

    def weekly_success_series(self, until: float,
                              count_unstable: bool = False
                              ) -> list[tuple[float, float]]:
        """(week start, success rate) series — the slide-23 trend."""
        series = []
        start = 0.0
        while start < until:
            rate = self.success_rate(since=start, until=min(start + WEEK, until),
                                     count_unstable=count_unstable)
            if not np.isnan(rate):
                series.append((start, rate))
            start += WEEK
        return series
