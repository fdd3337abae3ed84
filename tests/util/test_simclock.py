"""Unit tests for calendar helpers."""

import pytest

from repro.util import (
    DAY,
    HOUR,
    MINUTE,
    MONTH,
    WEEK,
    day_of_week,
    format_time,
    hour_of_day,
    is_peak_hours,
    is_weekend,
    sim_date,
)


def test_constants_consistent():
    assert HOUR == 60 * MINUTE
    assert DAY == 24 * HOUR
    assert WEEK == 7 * DAY
    assert MONTH == 30 * DAY


def test_epoch_is_wednesday():
    assert day_of_week(0.0) == 2  # Monday=0 -> Wednesday=2


def test_day_of_week_cycles():
    assert day_of_week(5 * DAY) == (2 + 5) % 7
    assert day_of_week(7 * DAY) == 2


def test_hour_of_day():
    assert hour_of_day(0.0) == 0.0
    assert hour_of_day(13.5 * HOUR) == 13.5
    assert hour_of_day(DAY + 2 * HOUR) == 2.0


def test_weekend_detection():
    # epoch (Wed) + 3 days = Saturday, +4 = Sunday, +5 = Monday
    assert not is_weekend(0.0)
    assert is_weekend(3 * DAY)
    assert is_weekend(4 * DAY)
    assert not is_weekend(5 * DAY)


def test_peak_hours_weekday():
    assert not is_peak_hours(8 * HOUR)
    assert is_peak_hours(9 * HOUR)
    assert is_peak_hours(18.99 * HOUR)
    assert not is_peak_hours(19 * HOUR)


def test_peak_hours_never_on_weekend():
    saturday_noon = 3 * DAY + 12 * HOUR
    assert not is_peak_hours(saturday_noon)


def test_sim_date_epoch():
    d = sim_date(0.0)
    assert (d.month_index, d.day, d.hour, d.minute, d.second) == (0, 1, 0, 0, 0)
    assert d.month_name == "Feb"


def test_sim_date_rollover():
    d = sim_date(MONTH + DAY + HOUR + MINUTE + 1)
    assert (d.month_index, d.day, d.hour, d.minute, d.second) == (1, 2, 1, 1, 1)
    assert d.month_name == "Mar"


def test_sim_date_negative_rejected():
    with pytest.raises(ValueError):
        sim_date(-1.0)


def test_month_names_wrap_after_a_year():
    assert sim_date(12 * MONTH).month_name == "Feb"
    assert sim_date(11 * MONTH).month_name == "Jan"


def test_format_time():
    assert format_time(0.0) == "Feb 01 00:00:00"
    assert format_time(2 * DAY + 14 * HOUR + 5 * MINUTE) == "Feb 03 14:05:00"


# -- boundary behaviour (peak-hour and weekend edges) -------------------------


def test_peak_hours_edges_at_0900_and_1900():
    # t=0 is Wednesday 00:00; the peak window is [09:00, 19:00).
    wed = 0.0
    assert not is_peak_hours(wed + 9 * HOUR - 1)
    assert is_peak_hours(wed + 9 * HOUR)  # 09:00:00 sharp is peak
    assert is_peak_hours(wed + 19 * HOUR - 1)
    assert not is_peak_hours(wed + 19 * HOUR)  # 19:00:00 sharp is off-peak
    assert hour_of_day(wed + 9 * HOUR) == 9.0


def test_weekend_edges():
    # epoch Wednesday -> Saturday starts 3 days in, Monday 5 days in.
    saturday = 3 * DAY
    assert not is_weekend(saturday - 1)  # Friday 23:59:59
    assert is_weekend(saturday)  # Saturday 00:00:00
    assert is_weekend(saturday + 2 * DAY - 1)  # Sunday 23:59:59
    assert not is_weekend(saturday + 2 * DAY)  # Monday 00:00:00
    assert day_of_week(saturday) == 5
    assert day_of_week(5 * DAY) == 0


def test_no_peak_hours_on_weekend():
    saturday = 3 * DAY
    assert not is_peak_hours(saturday + 10 * HOUR)
    assert not is_peak_hours(saturday + DAY + 10 * HOUR)  # Sunday
    assert is_peak_hours(saturday + 2 * DAY + 10 * HOUR)  # Monday
