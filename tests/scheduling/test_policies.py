"""Tests for scheduler policies and backoff."""

import pytest

from repro.scheduling import Backoff, SchedulerPolicy
from repro.util import DAY, HOUR


def test_backoff_grows_exponentially():
    backoff = Backoff(SchedulerPolicy())
    delays = [backoff.next_delay() for _ in range(5)]
    assert delays[0] == HOUR
    assert delays[1] == 2 * HOUR
    assert delays[2] == 4 * HOUR
    assert delays[4] == 16 * HOUR
    assert backoff.attempts == 5


def test_backoff_caps_at_max():
    backoff = Backoff(SchedulerPolicy())
    for _ in range(20):
        delay = backoff.next_delay()
    assert delay == 4 * DAY


def test_backoff_reset():
    backoff = Backoff(SchedulerPolicy())
    for _ in range(6):
        backoff.next_delay()
    backoff.reset()
    assert backoff.next_delay() == HOUR
    assert backoff.attempts == 1


def test_custom_backoff_parameters():
    policy = SchedulerPolicy(backoff_initial_s=60.0, backoff_factor=3.0,
                             backoff_max_s=600.0)
    backoff = Backoff(policy)
    assert backoff.next_delay() == 60.0
    assert backoff.next_delay() == 180.0
    assert backoff.next_delay() == 540.0
    assert backoff.next_delay() == 600.0  # capped


def test_hardware_avoids_peak_hours():
    policy = SchedulerPolicy()
    wednesday_noon = 12 * HOUR
    wednesday_night = 2 * HOUR
    assert not policy.allows_now("hardware", wednesday_noon)
    assert policy.allows_now("hardware", wednesday_night)
    assert policy.allows_now("software", wednesday_noon)


def test_peak_hours_policy_can_be_disabled():
    policy = SchedulerPolicy(avoid_peak_hours_for_hardware=False)
    assert policy.allows_now("hardware", 12 * HOUR)


# -- strategy layer -----------------------------------------------------------


def test_registry_knows_builtin_strategies():
    from repro.scheduling import (DefaultStrategy, get_strategy,
                                  strategy_names)
    import repro.service  # noqa: F401  (the wire bridge stays unregistered)
    assert get_strategy("default") is DefaultStrategy
    assert strategy_names() == ["common-pool", "default", "easy-backfill",
                                "steal-agreement"]


def test_unknown_strategy_error_lists_known_names():
    from repro.scheduling import get_strategy
    with pytest.raises(KeyError, match="default"):
        get_strategy("no-such-strategy")


def test_register_rejects_abstract_names():
    from repro.scheduling import SchedulingStrategy, register_strategy

    class Nameless(SchedulingStrategy):
        pass

    with pytest.raises(ValueError):
        register_strategy(Nameless)


def test_explicit_default_strategy_is_behaviour_identical():
    """The strategy extraction is a pure refactor: passing a
    DefaultStrategy instance as ``strategy=`` produces the byte-identical
    report of the implicit default."""
    import hashlib
    import json

    from repro import run_scenario, scenarios
    from repro.scheduling import DefaultStrategy

    def report_hash(report):
        doc = json.dumps(report.to_dict(), sort_keys=True,
                         separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()

    spec = scenarios.get("tiny-smoke")
    _, implicit = run_scenario(spec, seed=5, months=0.05)
    _, explicit = run_scenario(spec, seed=5, months=0.05,
                               strategy=DefaultStrategy(spec.policy))
    assert report_hash(implicit) == report_hash(explicit)
