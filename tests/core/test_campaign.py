"""Campaign-loop tests on a small testbed (fast closed-loop runs)."""

import pytest

from repro import scenarios
from repro.core import CampaignReport, run_scenario
from repro.oar import WorkloadConfig

SMALL = ("grisou", "grimoire", "graoully", "nova", "taurus")


def small_spec(**overrides):
    """paper-baseline cut down to five clusters, a lighter load and a
    smaller backlog."""
    defaults = dict(
        name="campaign-test",
        seed=17,
        months=0.5,
        clusters=SMALL,
        backlog_faults=8,
        fault_mean_interarrival_s=86_400.0,
        workload=WorkloadConfig(target_utilization=0.3),
    )
    defaults.update(overrides)
    return scenarios.get("paper-baseline").derive(**defaults)


@pytest.fixture(scope="module")
def campaign():
    return run_scenario(small_spec())


def test_report_counts_consistent(campaign):
    _, report = campaign
    assert report.bugs_filed >= report.bugs_fixed + report.bugs_open - \
        report.bugs_unexplained  # closed-unexplained make up the rest
    assert report.faults_detected <= report.faults_injected
    assert report.faults_injected >= 8  # at least the backlog


def test_framework_detects_some_backlog(campaign):
    _, report = campaign
    assert report.faults_detected > 0
    assert report.bugs_filed > 0


def test_weekly_series_lengths(campaign):
    _, report = campaign
    assert len(report.weekly_active_faults) >= 2
    assert report.weekly_success_rates  # at least one week with builds


def test_builds_ran(campaign):
    _, report = campaign
    assert report.total_builds > 20


def test_summary_renders(campaign):
    _, report = campaign
    text = report.summary()
    assert "bugs filed" in text
    assert "success rate" in text


def test_campaign_reproducible():
    _, a = run_scenario(small_spec(months=0.25))
    _, b = run_scenario(small_spec(months=0.25))
    assert a.bugs_filed == b.bugs_filed
    assert a.faults_injected == b.faults_injected
    assert a.weekly_success_rates == b.weekly_success_rates


def test_framework_off_detects_nothing():
    _, report = run_scenario(small_spec(months=0.25, framework_enabled=False))
    assert report.faults_detected == 0
    assert report.bugs_filed == 0
    assert report.total_builds == 0
    assert report.faults_active_end > 0  # nothing gets fixed either


def test_pernode_campaign_runs():
    _, report = run_scenario(small_spec(months=0.25, pernode=True))
    assert isinstance(report, CampaignReport)
    assert report.total_builds > 0
