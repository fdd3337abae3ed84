"""FrameworkBuilder: the spec plus one strategy, and the stage registry."""

import pytest

from repro.core import FrameworkBuilder, default_registry, register_subsystem
from repro.oar import WorkloadConfig
from repro.scenarios import ScenarioSpec
from repro.scheduling import DefaultStrategy, StealAgreementStrategy

SMALL = ("grisou", "grimoire", "graoully")


def small_spec(**overrides):
    defaults = dict(
        name="builder-test",
        seed=31,
        clusters=SMALL,
        families=("refapi", "oarstate"),
        workload=WorkloadConfig(target_utilization=0.25),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def test_builder_wires_everything():
    fw = FrameworkBuilder(small_spec()).build()
    assert fw.scheduler is not None
    assert fw.scheduler.cells  # families expanded into cells
    assert set(fw.jenkins.jobs) == {"test_refapi", "test_oarstate"}
    assert fw.testbed.cluster_count == len(SMALL)


def test_scheduler_never_a_placeholder():
    """The framework comes out immutable-complete: no post-construction
    mutation of the scheduler slot."""
    fw = FrameworkBuilder(small_spec()).build()
    assert fw.scheduler.jenkins is fw.jenkins
    assert fw.scheduler.oar is fw.oar
    assert fw.scheduler.policy == small_spec().policy


def test_pernode_spec_wraps_hardware_families():
    spec = small_spec(families=("multireboot", "refapi"), pernode=True)
    fw = FrameworkBuilder(spec).build()
    names = {f.name for f in fw.families}
    assert "multireboot-pernode" in names
    assert "refapi" in names  # software families untouched


def test_subsystem_override_swaps_backend():
    calls = []
    original = default_registry().factory("monitoring")

    def recording_monitoring(build):
        calls.append("monitoring")
        original(build)

    register_subsystem("monitoring", recording_monitoring)
    try:
        fw = FrameworkBuilder(small_spec()).build()
    finally:
        register_subsystem("monitoring", original)
    assert calls == ["monitoring"]
    assert fw.kwapi is not None
    assert default_registry().factory("monitoring") is original


def test_registry_rejects_unknown_stage():
    with pytest.raises(ValueError, match="unknown subsystem"):
        default_registry().register("blockchain", lambda build: None)


def test_strategy_instance_is_the_one_attached():
    spec = small_spec()
    strategy = StealAgreementStrategy(spec.policy)
    fw = FrameworkBuilder(spec, strategy=strategy).build()
    assert fw.scheduler.strategy is strategy
    assert spec.strategy == "default"  # the spec's name did not win
    assert type(FrameworkBuilder(spec).build().scheduler.strategy) \
        is DefaultStrategy
