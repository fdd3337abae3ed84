"""Calendar helpers over raw simulated seconds.

Simulated time is a float number of seconds.  The campaign epoch (t=0) is
anchored at **Wednesday 2017-02-01 00:00**, matching the paper's "85 % of
tests successful in February" baseline.  All helpers here are pure functions
of a timestamp so they can be used from any process.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "MONTH",
    "SimDate",
    "sim_date",
    "hour_of_day",
    "day_of_week",
    "is_weekend",
    "is_peak_hours",
    "format_time",
]

MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY
#: Calendar-agnostic 30-day month used for campaign lengths.
MONTH = 30 * DAY

#: t=0 is a Wednesday (2017-02-01); day_of_week uses Monday=0.
_EPOCH_WEEKDAY = 2

#: Integer counterparts of the float durations, hoisted once: sim_date runs
#: per formatted log line, and the per-call ``int(DAY)``/``int(HOUR)``/
#: ``int(MINUTE)`` conversions showed up in campaign profiles.
_MINUTE_I = int(MINUTE)
_HOUR_I = int(HOUR)
_DAY_I = int(DAY)
_MONTH_I = int(MONTH)

_MONTH_NAMES = [
    "Feb", "Mar", "Apr", "May", "Jun", "Jul",
    "Aug", "Sep", "Oct", "Nov", "Dec", "Jan",
]


@dataclass(frozen=True)
class SimDate:
    """Broken-down simulated date (30-day months starting February 2017)."""

    month_index: int  #: 0-based month since epoch
    day: int  #: 1-based day within month
    hour: int
    minute: int
    second: int

    @property
    def month_name(self) -> str:
        return _MONTH_NAMES[self.month_index % 12]

    def __str__(self) -> str:
        return (
            f"{self.month_name} {self.day:02d} "
            f"{self.hour:02d}:{self.minute:02d}:{self.second:02d}"
        )


def sim_date(t: float) -> SimDate:
    """Break a timestamp into the simulated calendar."""
    if t < 0:
        raise ValueError(f"negative simulated time: {t}")
    total = int(t)
    month, rem = divmod(total, _MONTH_I)
    day, rem = divmod(rem, _DAY_I)
    hour, rem = divmod(rem, _HOUR_I)
    minute, second = divmod(rem, _MINUTE_I)
    return SimDate(month, day + 1, hour, minute, second)


def hour_of_day(t: float) -> float:
    """Hour within the day, in [0, 24)."""
    return (t % DAY) / HOUR


def day_of_week(t: float) -> int:
    """Day of the week, Monday=0 ... Sunday=6."""
    return (int(t // DAY) + _EPOCH_WEEKDAY) % 7


def is_weekend(t: float) -> bool:
    return day_of_week(t) >= 5


def is_peak_hours(t: float) -> bool:
    """Working hours on working days: 09:00-19:00 Monday-Friday.

    The paper's external scheduler avoids launching resource-hungry test
    jobs during peak hours so as not to compete with real users.
    """
    return (not is_weekend(t)) and 9.0 <= hour_of_day(t) < 19.0


def format_time(t: float) -> str:
    """Human-readable absolute timestamp, e.g. ``'Feb 03 14:05:00'``."""
    return str(sim_date(t))
