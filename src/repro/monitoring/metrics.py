"""Time-series storage for monitoring probes.

Slide 9: infrastructure probes (network, power) are "captured at high
frequency (≈1 Hz)" with live visualization, a REST API and long-term
storage.  :class:`MetricStore` keeps every series as one column of a
:class:`RingColumnBlock`: a fixed-capacity (timestamp, value) ring packed
with its siblings into two shared 2-D numpy arrays — O(1) appends,
numpy window queries, bounded memory even on month-long campaigns.

A probe reserves one block for all its per-node series at construction
(:meth:`MetricStore.add_block`), so a park-wide sweep lands one sample in
every column with a single fancy-index scatter per metric; a series
recorded by name alone (:meth:`MetricStore.record`) gets a one-column
block of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..util.errors import MonitoringError

__all__ = ["SeriesStats", "RingColumnBlock", "MetricStore"]


@dataclass(frozen=True)
class SeriesStats:
    count: int
    mean: float
    minimum: float
    maximum: float


class RingColumnBlock:
    """Many same-capacity rings sharing two 2-D arrays.

    Column *i* is one (timestamp, value) ring with its own head and size.
    The arrays are allocated with ``np.empty`` and never grow, so pages of
    columns that are never written are never touched.
    """

    __slots__ = ("_t", "_v", "_capacity", "_heads", "_sizes")

    def __init__(self, columns: int, capacity: int) -> None:
        if capacity < 1:
            raise MonitoringError("ring capacity must be >= 1")
        self._capacity = capacity
        self._t = np.empty((columns, capacity), dtype=np.float64)
        self._v = np.empty((columns, capacity), dtype=np.float64)
        self._heads = np.zeros(columns, dtype=np.intp)
        self._sizes = np.zeros(columns, dtype=np.intp)

    def count(self, col: int) -> int:
        """Samples currently held by column ``col``."""
        return int(self._sizes[col])

    def append(self, col: int, t: float, value: float) -> None:
        head = int(self._heads[col])
        self._t[col, head] = t
        self._v[col, head] = value
        self._heads[col] = (head + 1) % self._capacity
        if self._sizes[col] < self._capacity:
            self._sizes[col] += 1

    def append_rows(self, cols: np.ndarray, t: float,
                    values: np.ndarray) -> None:
        """Append ``(t, values[i])`` to column ``cols[i]`` for all *i*.

        ``cols`` must not repeat a column: a fancy-index scatter writes
        duplicates only once, where sequential appends would keep both.
        """
        heads = self._heads[cols]
        self._t[cols, heads] = t
        self._v[cols, heads] = values
        self._heads[cols] = (heads + 1) % self._capacity
        sizes = self._sizes[cols] + 1
        np.minimum(sizes, self._capacity, out=sizes)
        self._sizes[cols] = sizes

    def last(self, col: int) -> tuple[float, float]:
        if not self._sizes[col]:
            raise MonitoringError("empty series")
        idx = (int(self._heads[col]) - 1) % self._capacity
        return float(self._t[col, idx]), float(self._v[col, idx])

    def window(self, col: int, t_from: float,
               t_to: float) -> tuple[np.ndarray, np.ndarray]:
        """Column ``col``'s samples with ``t_from <= t < t_to``
        (chronological)."""
        size = int(self._sizes[col])
        t, v = self._t[col, :size], self._v[col, :size]
        if size == self._capacity:  # wrapped: the oldest sample is at head
            head = int(self._heads[col])
            t, v = np.roll(t, -head), np.roll(v, -head)
        mask = (t >= t_from) & (t < t_to)
        return t[mask], v[mask]


class MetricStore:
    """Named series, each one column of a :class:`RingColumnBlock`.

    A series is listed by :meth:`has_series`/:meth:`series_names` once it
    holds a sample, so columns a probe reserved but never wrote (nodes of
    a site whose kwapi is down) stay invisible.
    """

    def __init__(self, capacity_per_series: int = 4096) -> None:
        self._capacity = capacity_per_series
        self._series: dict[str, tuple[RingColumnBlock, int]] = {}

    def add_block(self, names: Sequence[str]) -> RingColumnBlock:
        """Reserve one column per name, in order, in a new block.

        Raises :class:`MonitoringError` when a name is already stored (or
        repeated), so two writers can never share a series.
        """
        if len(set(names)) != len(names):
            raise MonitoringError("add_block names a series twice")
        taken = [n for n in names if n in self._series]
        if taken:
            raise MonitoringError(f"series already stored: {', '.join(taken)}")
        block = RingColumnBlock(len(names), self._capacity)
        for col, name in enumerate(names):
            self._series[name] = (block, col)
        return block

    def record(self, series: str, t: float, value: float) -> None:
        entry = self._series.get(series)
        if entry is None:
            entry = (self.add_block([series]), 0)
        entry[0].append(entry[1], t, value)

    def series_names(self) -> list[str]:
        return sorted(n for n in self._series if self.has_series(n))

    def has_series(self, series: str) -> bool:
        entry = self._series.get(series)
        return entry is not None and entry[0].count(entry[1]) > 0

    def _column(self, series: str) -> tuple[RingColumnBlock, int]:
        if not self.has_series(series):
            raise MonitoringError(f"unknown series: {series}")
        return self._series[series]

    def last(self, series: str) -> tuple[float, float]:
        block, col = self._column(series)
        return block.last(col)

    def window(self, series: str, t_from: float,
               t_to: float) -> tuple[np.ndarray, np.ndarray]:
        block, col = self._column(series)
        return block.window(col, t_from, t_to)

    def stats(self, series: str, t_from: float, t_to: float) -> SeriesStats:
        _, values = self.window(series, t_from, t_to)
        if values.size == 0:
            return SeriesStats(0, float("nan"), float("nan"), float("nan"))
        return SeriesStats(
            count=int(values.size),
            mean=float(values.mean()),
            minimum=float(values.min()),
            maximum=float(values.max()),
        )
