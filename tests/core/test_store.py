"""Campaign result store: keys, codec round-trip, durability, resume."""

import json

import pytest

from repro import CampaignStore, run_campaigns, scenarios
from repro.core.store import cell_hash, cell_key
from repro.oar import WorkloadConfig
from repro.util import canonical_json


def fast_spec(name="store-fast", **overrides):
    defaults = dict(
        name=name,
        months=0.1,
        clusters=("grisou",),
        families=("refapi",),
        backlog_faults=2,
        workload=WorkloadConfig(target_utilization=0.25),
    )
    defaults.update(overrides)
    return scenarios.ScenarioSpec(**defaults)


def crashing_spec(name="store-crash"):
    # executors=0 passes spec validation but blows up in the builder
    # (Resource capacity must be >= 1) — a deterministic in-worker crash.
    return fast_spec(name, executors=0)


# -- keys ---------------------------------------------------------------------


def test_cell_hash_ignores_seed_and_name_changes_matter():
    a = fast_spec()
    assert cell_hash(a) == cell_hash(a.derive(seed=99))
    assert cell_hash(a) != cell_hash(a.derive(name="other"))
    assert cell_hash(a) != cell_hash(a.derive(backlog_faults=3))


def test_cell_hash_folds_months_override():
    native = fast_spec(months=0.2)
    overridden = fast_spec(months=5.0)
    assert cell_hash(native) == cell_hash(overridden, months=0.2)
    assert cell_key(native, 3) == cell_key(overridden, 3, months=0.2)


def test_cell_key_distinguishes_seed_and_months():
    spec = fast_spec()
    assert cell_key(spec, 0) != cell_key(spec, 1)
    assert cell_key(spec, 0) != cell_key(spec, 0, months=0.2)


def test_cell_hash_normalizes_int_valued_floats():
    # months=1 (int) and months=1.0 describe the same world; a resume with
    # --months 1 must cache-hit against a store built from either
    a = fast_spec(months=1)
    b = fast_spec(months=1.0)
    assert cell_hash(a) == cell_hash(b)
    assert cell_key(a, 0) == cell_key(b, 0)
    assert cell_hash(fast_spec(), months=1) == cell_hash(b)
    # and a spec reloaded from its own JSON hashes identically
    from repro.scenarios import ScenarioSpec
    assert ScenarioSpec.from_dict(a.to_dict()).content_hash() == \
        a.content_hash()


def test_store_file_is_strict_json(tmp_path):
    # NaN metrics (e.g. detection latency with nothing detected) must land
    # as null, keeping every archived line jq/RFC-8259 parseable
    import math

    spec = fast_spec("store-strict", framework_enabled=False)
    path = tmp_path / "s.jsonl"
    (run,) = run_campaigns([spec], seeds=[0], workers=1, store=path)
    assert math.isnan(run.report.detection_latency_days_median)
    for line in path.read_text().splitlines():
        doc = json.loads(line, parse_constant=lambda c: pytest.fail(
            f"non-strict JSON constant {c!r} in store"))
        assert doc["report"]["detection_latency_days_median"] is None
    # and the NaN comes back on load
    cell = CampaignStore(path).get(cell_key(spec, 0))
    assert math.isnan(cell.report.detection_latency_days_median)


def test_spec_content_hash_covers_every_knob():
    spec = fast_spec()
    assert spec.content_hash() == fast_spec().content_hash()
    assert spec.content_hash() != spec.derive(seed=1).content_hash()


# -- record round-trip --------------------------------------------------------


def test_store_roundtrips_report(tmp_path):
    from repro.core import run_scenario

    spec = fast_spec()
    _, report = run_scenario(spec, seed=4)
    store = CampaignStore(tmp_path / "s.jsonl")
    store.record_success(spec, 4, report)

    reloaded = CampaignStore(tmp_path / "s.jsonl")
    assert len(reloaded) == 1
    cell = reloaded.get(cell_key(spec, 4))
    assert cell is not None and cell.ok
    assert cell.scenario == spec.name and cell.seed == 4
    # the archived spec documents exactly what ran, cell seed included
    assert cell.spec["seed"] == 4
    assert cell.spec["months"] == spec.months
    # NaN-tolerant equality: compare canonical documents
    assert canonical_json(cell.report.to_dict()) == \
        canonical_json(report.to_dict())


def test_store_records_failures(tmp_path):
    store = CampaignStore(tmp_path / "s.jsonl")
    store.record_failure(fast_spec(), 0, "Traceback: boom")
    reloaded = CampaignStore(tmp_path / "s.jsonl")
    (cell,) = reloaded.failures()
    assert not cell.ok and "boom" in cell.error
    assert len(reloaded) == 1


def test_store_last_record_wins(tmp_path):
    from repro.core import run_scenario

    spec = fast_spec()
    _, report = run_scenario(spec, seed=0)
    store = CampaignStore(tmp_path / "s.jsonl")
    store.record_failure(spec, 0, "first attempt died")
    store.record_success(spec, 0, report)
    reloaded = CampaignStore(tmp_path / "s.jsonl")
    assert len(reloaded) == 1
    assert reloaded.get(cell_key(spec, 0)).ok


def test_store_skips_torn_final_line(tmp_path):
    from repro.core import run_scenario

    spec = fast_spec()
    _, report = run_scenario(spec, seed=0)
    path = tmp_path / "s.jsonl"
    CampaignStore(path).record_success(spec, 0, report)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"v": 1, "key": "torn')  # killed mid-append
    reloaded = CampaignStore(path)
    assert len(reloaded) == 1


def test_append_after_torn_tail_seals_and_survives(tmp_path):
    # A writer killed mid-append leaves a partial line WITHOUT a trailing
    # newline; the next append must not glue its record onto it, and the
    # sealed torn line must lose only itself on later loads.
    from repro.core import run_scenario

    spec = fast_spec()
    _, report = run_scenario(spec, seed=0)
    path = tmp_path / "s.jsonl"
    CampaignStore(path).record_success(spec, 0, report)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"v": 1, "key": "torn')  # no newline: killed mid-write
    store = CampaignStore(path)
    store.record_success(spec, 1, report)  # append over the torn tail
    reloaded = CampaignStore(path)
    assert len(reloaded) == 2
    assert reloaded.get(cell_key(spec, 1)) is not None


def test_store_rejects_unknown_version(tmp_path):
    path = tmp_path / "s.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"v": 999, "key": "x"}) + "\n")
    with pytest.raises(ValueError):
        CampaignStore(path)


# -- resume -------------------------------------------------------------------


def test_resume_skips_stored_cells_and_runs_only_missing(tmp_path):
    spec = fast_spec()
    path = tmp_path / "s.jsonl"
    run_campaigns([spec], seeds=[0, 1], workers=1, store=path)

    executed, cached = [], []

    def progress(run, from_store):
        (cached if from_store else executed).append(run.seed)

    runs = run_campaigns([spec], seeds=[0, 1, 2, 3], workers=1,
                         store=path, resume=True, on_cell=progress)
    assert sorted(executed) == [2, 3]  # only the missing cells ran
    assert sorted(cached) == [0, 1]
    assert [r.seed for r in runs] == [0, 1, 2, 3]
    assert all(r.ok for r in runs)
    assert len(CampaignStore(path)) == 4


def test_resume_returns_identical_reports(tmp_path):
    spec = fast_spec()
    path = tmp_path / "s.jsonl"
    cold = run_campaigns([spec], seeds=[0, 1], workers=1, store=path)
    warm = run_campaigns([spec], seeds=[0, 1], workers=1, store=path,
                         resume=True)
    assert [canonical_json(r.report.to_dict()) for r in cold] == \
        [canonical_json(r.report.to_dict()) for r in warm]


def test_resume_retries_recorded_failures(tmp_path):
    spec = fast_spec()
    path = tmp_path / "s.jsonl"
    store = CampaignStore(path)
    store.record_failure(spec, 0, "transient crash")

    executed = []
    runs = run_campaigns([spec], seeds=[0], workers=1, store=store,
                         resume=True,
                         on_cell=lambda r, c: executed.append((r.seed, c)))
    assert executed == [(0, False)]  # the failed cell was re-run, not skipped
    assert runs[0].ok
    assert CampaignStore(path).get(cell_key(spec, 0)).ok


def test_without_resume_store_cells_are_overwritten(tmp_path):
    spec = fast_spec()
    path = tmp_path / "s.jsonl"
    run_campaigns([spec], seeds=[0], workers=1, store=path)

    executed = []
    run_campaigns([spec], seeds=[0], workers=1, store=path,
                  on_cell=lambda r, c: executed.append(c))
    assert executed == [False]  # resume off: cell re-ran
    assert len(CampaignStore(path)) == 1


def test_store_runs_disambiguates_same_name_variants(tmp_path):
    # one name, two different worlds (different backlog): runs() must split
    # them into distinct display names so aggregation never merges them
    path = tmp_path / "s.jsonl"
    run_campaigns([fast_spec("twin")], seeds=[0], workers=1, store=path)
    run_campaigns([fast_spec("twin", backlog_faults=9)], seeds=[0],
                  workers=1, store=path)
    names = {r.scenario for r in CampaignStore(path).runs()}
    assert len(names) == 2
    assert all(n.startswith("twin#") for n in names)  # same horizon: hash tag

    from repro.core.batch import aggregate_runs
    agg = aggregate_runs(CampaignStore(path).runs())  # must not raise
    assert len(agg) == 2


def test_store_runs_reconstructs_campaign_runs(tmp_path):
    path = tmp_path / "s.jsonl"
    run_campaigns([fast_spec("s-b"), fast_spec("s-a")], seeds=[1, 0],
                  workers=1, store=path)
    runs = CampaignStore(path).runs()
    # sorted scenario-major, seed-minor
    assert [(r.scenario, r.seed) for r in runs] == [
        ("s-a", 0), ("s-a", 1), ("s-b", 0), ("s-b", 1)]
    assert all(r.ok and r.spec_hash for r in runs)
    filtered = CampaignStore(path).runs(scenarios=["s-a"])
    assert [(r.scenario, r.seed) for r in filtered] == [("s-a", 0), ("s-a", 1)]


# -- pluggable backends -------------------------------------------------------


def test_jsonl_backend_is_the_default_and_equivalent(tmp_path):
    from repro.core.store import JsonlBackend
    path = tmp_path / "cells.jsonl"
    store = CampaignStore(str(path))
    assert isinstance(store.backend, JsonlBackend)
    assert store.path == str(path)
    store.record_success(fast_spec(), seed=0,
                         report=_tiny_report(), months=0.1)
    # an explicitly-constructed backend reads the same file
    reopened = CampaignStore(JsonlBackend(str(path)))
    assert len(reopened) == 1
    assert reopened.get(cell_key(fast_spec(), 0, 0.1)).ok


def test_memory_backend_round_trips_without_touching_disk(tmp_path):
    from repro.core.store import MemoryBackend
    backend = MemoryBackend()
    store = CampaignStore(backend)
    assert store.path == "<memory>"
    store.record_success(fast_spec(), seed=3,
                         report=_tiny_report(), months=0.1)
    assert len(backend.docs) == 1
    # a new store over the same backend instance replays its documents
    again = CampaignStore(backend)
    assert len(again) == 1
    assert again.get(cell_key(fast_spec(), 3, 0.1)).ok
    assert not list(tmp_path.iterdir())


def test_custom_backend_sees_every_append():
    from repro.core.store import MemoryBackend

    class CountingBackend(MemoryBackend):
        appends = 0

        def append(self, doc):
            CountingBackend.appends += 1
            super().append(doc)

    store = CampaignStore(CountingBackend())
    store.record_failure(fast_spec(), seed=0, error="boom", months=0.1)
    store.record_success(fast_spec(), seed=1,
                         report=_tiny_report(), months=0.1)
    assert CountingBackend.appends == 2
    assert len(store.failures()) == 1 and len(store) == 2


def _tiny_report():
    from repro.core.campaign import CampaignReport
    return CampaignReport(
        months=0.1, bugs_filed=1, bugs_fixed=1, bugs_open=0,
        bugs_unexplained=0, faults_injected=2, faults_detected=1,
        faults_active_end=1, detection_latency_days_median=0.5,
        fix_time_days_median=1.0, weekly_success_rates=[(0.0, 1.0)],
        first_month_success=1.0, last_month_success=1.0,
        total_builds=10, unstable_builds=0)
