"""The paper's contribution: the testing framework and campaign loop."""

from .batch import (
    MetricSummary,
    aggregate_runs,
    run_campaigns,
    summarize_runs,
)
from .bugtracker import Bug, BugStatus, BugTracker, OperatorTeam
from .builder import (
    FrameworkBuild,
    FrameworkBuilder,
    default_registry,
    register_subsystem,
)
from .campaign import CampaignReport, run_scenario
from .framework import TestingFramework
from .store import CampaignRun, CampaignStore, cell_hash, cell_key

__all__ = [
    "Bug",
    "BugStatus",
    "BugTracker",
    "OperatorTeam",
    "TestingFramework",
    "FrameworkBuild",
    "FrameworkBuilder",
    "default_registry",
    "register_subsystem",
    "CampaignReport",
    "CampaignRun",
    "CampaignStore",
    "cell_hash",
    "cell_key",
    "MetricSummary",
    "run_scenario",
    "run_campaigns",
    "aggregate_runs",
    "summarize_runs",
]
