"""Batch campaign runner: matrix shape, determinism, aggregation."""

import math
import multiprocessing

import pytest

from repro import scenarios
from repro.core import (
    CampaignRun,
    aggregate_runs,
    run_campaigns,
    run_scenario,
    summarize_runs,
)
from repro.core.batch import SCALAR_METRICS
from repro.oar import WorkloadConfig


def report_doc(report):
    """NaN-tolerant equality proxy (NaN != NaN under dataclass ==)."""
    import dataclasses

    from repro.util import canonical_json
    return canonical_json(dataclasses.asdict(report))


def fast_spec(name="batch-fast", **overrides):
    defaults = dict(
        name=name,
        months=0.15,
        clusters=("grisou", "nova", "taurus"),
        families=("refapi", "oarstate", "console"),
        backlog_faults=4,
        workload=WorkloadConfig(target_utilization=0.25),
    )
    defaults.update(overrides)
    return scenarios.ScenarioSpec(**defaults)


def test_matrix_shape_and_order():
    runs = run_campaigns([fast_spec("m-a"), fast_spec("m-b")],
                         seeds=[3, 5], workers=1)
    assert [(r.scenario, r.seed) for r in runs] == [
        ("m-a", 3), ("m-a", 5), ("m-b", 3), ("m-b", 5)]
    assert all(isinstance(r, CampaignRun) for r in runs)
    assert all(r.report.scenario == r.scenario and r.report.seed == r.seed
               for r in runs)


def test_accepts_preset_names():
    runs = run_campaigns(["tiny-smoke"], seeds=[1], workers=1, months=0.15)
    assert len(runs) == 1
    assert runs[0].scenario == "tiny-smoke"
    assert runs[0].report.months == 0.15


def test_same_seed_same_report():
    a = run_campaigns([fast_spec()], seeds=[7], workers=1)
    b = run_campaigns([fast_spec()], seeds=[7], workers=1)
    assert report_doc(a[0].report) == report_doc(b[0].report)


def test_workers_do_not_change_results():
    spec = fast_spec()
    serial = run_campaigns([spec], seeds=[0, 1], workers=1)
    parallel = run_campaigns([spec], seeds=[0, 1], workers=2)
    assert [report_doc(r.report) for r in serial] == \
        [report_doc(r.report) for r in parallel]


def test_batch_matches_run_scenario():
    spec = fast_spec()
    (run,) = run_campaigns([spec], seeds=[11], workers=1)
    _, direct = run_scenario(spec, seed=11)
    assert report_doc(run.report) == report_doc(direct)


def test_empty_matrix():
    assert run_campaigns([], seeds=[0]) == []
    assert run_campaigns([fast_spec()], seeds=[]) == []


def test_aggregate_mean_and_ci():
    runs = run_campaigns([fast_spec()], seeds=[0, 1, 2], workers=1)
    agg = aggregate_runs(runs)
    metrics = agg["batch-fast"]
    assert set(metrics) == set(SCALAR_METRICS)
    builds = metrics["total_builds"]
    values = [r.report.total_builds for r in runs]
    assert builds.n == 3
    assert builds.mean == pytest.approx(sum(values) / 3)
    assert builds.ci95 >= 0.0
    # mean must sit inside the observed range
    assert min(values) <= builds.mean <= max(values)


def test_aggregate_drops_nan_samples():
    # framework off -> nothing detected -> detection latency is NaN
    off = fast_spec("batch-off", framework_enabled=False)
    runs = run_campaigns([off], seeds=[0, 1], workers=1)
    lat = aggregate_runs(runs)["batch-off"]["detection_latency_days_median"]
    assert lat.n == 0 and math.isnan(lat.mean)
    bugs = aggregate_runs(runs)["batch-off"]["bugs_filed"]
    assert bugs.n == 2 and bugs.mean == 0.0


def test_summarize_runs_renders():
    runs = run_campaigns([fast_spec()], seeds=[0, 1], workers=1)
    text = summarize_runs(runs)
    assert "batch-fast" in text
    assert "bugs_filed" in text
    assert "n=2" in text


# -- streaming engine: error capture, callbacks, worker invariance ------------


def crashing_spec(name="batch-crash"):
    # executors=0 passes spec validation but blows up in the builder
    # (Resource capacity must be >= 1) — a deterministic in-worker crash.
    return fast_spec(name, executors=0)


def test_crashing_cell_does_not_abort_matrix():
    runs = run_campaigns([crashing_spec(), fast_spec()], seeds=[0, 1],
                         workers=1)
    assert [(r.scenario, r.seed) for r in runs] == [
        ("batch-crash", 0), ("batch-crash", 1),
        ("batch-fast", 0), ("batch-fast", 1)]
    crashed = [r for r in runs if r.scenario == "batch-crash"]
    healthy = [r for r in runs if r.scenario == "batch-fast"]
    assert all(not r.ok and r.report is None for r in crashed)
    assert all("capacity" in r.error for r in crashed)
    assert all(r.ok for r in healthy)


def test_crashing_cell_survives_worker_pool():
    runs = run_campaigns([crashing_spec(), fast_spec()], seeds=[0, 1],
                         workers=2)
    assert sum(1 for r in runs if r.ok) == 2
    assert sum(1 for r in runs if not r.ok) == 2
    # and the pool kept matrix order despite unordered completion
    assert [(r.scenario, r.seed) for r in runs] == [
        ("batch-crash", 0), ("batch-crash", 1),
        ("batch-fast", 0), ("batch-fast", 1)]


def test_on_cell_fires_once_per_cell():
    seen = []
    runs = run_campaigns([fast_spec()], seeds=[0, 1], workers=1,
                         on_cell=lambda r, cached: seen.append(
                             (r.scenario, r.seed, cached)))
    assert sorted(seen) == [("batch-fast", 0, False), ("batch-fast", 1, False)]
    assert len(runs) == 2


def test_worker_count_invariance_property():
    """workers=1 and workers=N produce byte-identical matrices, including
    captured failures, at every worker count."""
    specs = [fast_spec("inv-a"), crashing_spec("inv-x"),
             fast_spec("inv-b", backlog_faults=6)]
    seeds = [0, 1]
    serial = run_campaigns(specs, seeds=seeds, workers=1)
    for workers in (2, 3, 4):
        parallel = run_campaigns(specs, seeds=seeds, workers=workers)
        assert [(r.scenario, r.seed, r.ok, r.spec_hash) for r in serial] == \
            [(r.scenario, r.seed, r.ok, r.spec_hash) for r in parallel]
        assert [report_doc(r.report) for r in serial if r.ok] == \
            [report_doc(r.report) for r in parallel if r.ok]


def test_aggregate_skips_failed_runs():
    runs = run_campaigns([crashing_spec(), fast_spec()], seeds=[0, 1],
                         workers=1)
    agg = aggregate_runs(runs)
    assert "batch-crash" not in agg  # nothing but failures: no block
    assert agg["batch-fast"]["total_builds"].n == 2
    text = summarize_runs(runs)
    assert "failed cells (2)" in text
    assert "batch-crash @ seed 0" in text


def test_aggregate_rejects_conflicting_specs_under_one_name():
    # same name, different world: merging them into one CI would be bogus
    a = run_campaigns([fast_spec("dup")], seeds=[0], workers=1)
    b = run_campaigns([fast_spec("dup", backlog_faults=9)], seeds=[1],
                      workers=1)
    with pytest.raises(ValueError, match="dup"):
        aggregate_runs(a + b)


def test_aggregate_accepts_same_spec_under_one_name():
    # the same world listed twice (e.g. two resumed slices) is fine
    a = run_campaigns([fast_spec("same")], seeds=[0], workers=1)
    b = run_campaigns([fast_spec("same")], seeds=[1], workers=1)
    agg = aggregate_runs(a + b)
    assert agg["same"]["total_builds"].n == 2


def test_warm_pool_is_reused_across_batches():
    from repro.core import batch as batch_mod

    batch_mod.shutdown_worker_pool()
    smoke = scenarios.get("tiny-smoke").derive(months=0.03)
    first = run_campaigns([smoke], seeds=[0, 1], workers=2)
    pids_after_first = {p.pid for p in multiprocessing.active_children()}
    second = run_campaigns([smoke], seeds=[2, 3], workers=2)
    pids_after_second = {p.pid for p in multiprocessing.active_children()}
    try:
        assert len(pids_after_first) == 2
        assert pids_after_first == pids_after_second
        assert all(r.ok for r in first + second)
    finally:
        batch_mod.shutdown_worker_pool()
    assert multiprocessing.active_children() == []


def test_serial_and_two_worker_batches_agree():
    from repro.core import batch as batch_mod

    smoke = scenarios.get("tiny-smoke").derive(months=0.03)
    seeds = list(range(16))
    serial = run_campaigns([smoke], seeds=seeds, workers=1)
    try:
        parallel = run_campaigns([smoke], seeds=seeds, workers=2)
    finally:
        batch_mod.shutdown_worker_pool()
    for a, b in zip(serial, parallel):
        assert a.report.to_dict() == b.report.to_dict()
