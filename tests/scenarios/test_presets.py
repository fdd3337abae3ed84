"""Preset registry: lookup, completeness, and baseline fidelity."""

import pytest

from repro import scenarios
from repro.oar import WorkloadConfig
from repro.scenarios import ScenarioSpec
from repro.scheduling import SchedulerPolicy
from repro.util.simclock import DAY

EXPECTED_PRESETS = {
    "paper-baseline",
    "a2-no-framework",
    "pernode",
    "flaky-services",
    "understaffed-ops",
    "double-scale",
    "tiny-smoke",
    "high-churn",
    "trace-replay",
    "bursty-replay",
}


def test_library_ships_expected_presets():
    assert EXPECTED_PRESETS <= set(scenarios.names())
    assert len(scenarios.names()) >= 10


def test_get_returns_spec():
    spec = scenarios.get("paper-baseline")
    assert isinstance(spec, ScenarioSpec)
    assert spec.name == "paper-baseline"


def test_get_unknown_name_lists_known():
    with pytest.raises(KeyError, match="paper-baseline"):
        scenarios.get("no-such-scenario")


def test_register_rejects_duplicates():
    spec = scenarios.get("tiny-smoke")
    with pytest.raises(ValueError, match="already registered"):
        scenarios.register(spec)


def test_paper_baseline_matches_legacy_campaign_defaults():
    """The preset pins the slide-22/23 calibration: five months from
    February's 50-fault backlog, ~0.45 faults/day, 60 % user load, 16
    Jenkins executors, framework on, whole-cluster (not per-node) tests."""
    spec = scenarios.get("paper-baseline")
    assert spec.seed == 0
    assert spec.months == 5.0
    assert spec.clusters is None and spec.scale == 1.0
    assert spec.backlog_faults == 50
    assert spec.fault_mean_interarrival_s == 2.2 * DAY
    assert spec.policy == SchedulerPolicy()
    assert spec.workload == WorkloadConfig(target_utilization=0.6)
    assert spec.operator_speedup == 1.0
    assert spec.framework_enabled is True
    assert spec.pernode is False
    assert spec.executors == 16


def test_ablation_presets_differ_only_where_advertised():
    base = scenarios.get("paper-baseline")
    assert scenarios.get("a2-no-framework") == base.derive(
        name="a2-no-framework",
        description=scenarios.get("a2-no-framework").description,
        framework_enabled=False)
    assert scenarios.get("pernode").pernode is True
    assert scenarios.get("double-scale").scale == 2.0
    assert scenarios.get("understaffed-ops").operator_speedup < 1.0
    assert (scenarios.get("flaky-services").fault_mean_interarrival_s
            < base.fault_mean_interarrival_s)


def test_tiny_smoke_resolves_small_world():
    spec = scenarios.get("tiny-smoke")
    specs = spec.resolve_cluster_specs()
    assert {s.name for s in specs} == set(spec.clusters)
    assert sum(s.nodes for s in specs) < 200


def test_double_scale_doubles_node_counts():
    base = scenarios.get("paper-baseline").resolve_cluster_specs()
    doubled = scenarios.get("double-scale").resolve_cluster_specs()
    assert sum(s.nodes for s in doubled) == 2 * sum(s.nodes for s in base)
