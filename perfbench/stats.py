"""Percentiles with an explicit sample-count rule."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, its value is a handful of outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than MIN_BEYOND samples beyond it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank), refusing thin tails.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples are strictly greater than the returned value.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("no samples")
    value = ordered[max(0, math.ceil(q / 100.0 * n) - 1)]
    beyond = n - bisect_right(ordered, value)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    return value


def beyond(samples: Sequence[float], value: float) -> int:
    """How many samples lie strictly above ``value``."""
    return sum(1 for s in samples if s > value)
