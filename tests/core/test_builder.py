"""FrameworkBuilder: registry plumbing and wiring."""

import pytest

from repro.core import FrameworkBuilder, SubsystemRegistry
from repro.core.builder import SUBSYSTEM_ORDER, default_registry
from repro.checksuite import family_by_name
from repro.oar import WorkloadConfig
from repro.scenarios import ScenarioSpec
from repro.testbed import CLUSTER_SPECS

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

    def recording_monitoring(build):
        calls.append("monitoring")
        from repro.core.builder import _build_monitoring
        _build_monitoring(build)

    registry = default_registry()
    registry.register("monitoring", recording_monitoring)
    fw = FrameworkBuilder(small_spec(), registry=registry).build()
    assert calls == ["monitoring"]
    assert fw.kwapi is not None


def test_registry_rejects_unknown_stage():
    registry = SubsystemRegistry()
    with pytest.raises(ValueError, match="unknown subsystem"):
        registry.register("blockchain", lambda build: None)


def test_registry_copy_isolated():
    base = default_registry()
    copy = base.copy()
    copy.register("monitoring", lambda build: None)
    assert base.factory("monitoring") is not copy.factory("monitoring")
    assert set(SUBSYSTEM_ORDER) == {
        "testbed", "oar", "kadeploy", "kavlan", "monitoring", "faults",
        "ci", "scheduling"}


def test_with_families_override_beats_spec():
    fw = (FrameworkBuilder(small_spec())
          .with_families([family_by_name("console")])
          .build())
    assert [f.name for f in fw.families] == ["console"]


def test_with_cluster_specs_override_beats_spec():
    specs = [s for s in CLUSTER_SPECS if s.name == "nova"]
    fw = FrameworkBuilder(small_spec()).with_cluster_specs(specs).build()
    assert fw.testbed.cluster_count == 1
