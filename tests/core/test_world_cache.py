"""The seed-independent world is built once per process and shared safely.

``FrameworkBuilder`` keeps each cluster-spec set's testbed description and
its initial Reference API import in a small per-process cache, and
``TraceReplayConfig.load`` keeps each trace-file version it read.  A cold
build is just a cache miss, so these tests pin what sharing must never
change: report bytes (cold vs warm, both orders), one run's description
edits reaching another run, a rewritten trace file being replayed stale,
the cache being bypassed on a hit, and a lost update when sessions build
in threads.
"""

import dataclasses
import sys
import threading

import pytest

from repro import run_scenario, scenarios
from repro.core import builder as builder_mod
from repro.core.builder import FrameworkBuilder
from repro.oar import traces as traces_mod
from repro.oar.traces import (TraceRecord, TraceReplayConfig, WorkloadTrace,
                               save_trace)
from repro.testbed import CLUSTER_SPECS
from repro.util.serialization import content_hash

from test_determinism_guard import report_hash


def _cold():
    builder_mod._world_cache.clear()
    traces_mod._trace_memo.clear()


def _hash(name, seed):
    _, report = run_scenario(scenarios.get(name), seed=seed, months=0.01)
    return report_hash(report)


@pytest.mark.parametrize("name", scenarios.names())
def test_cold_and_warm_runs_give_the_same_report(name):
    _cold()
    cold = _hash(name, 3)
    warm = _hash(name, 3)  # cold -> warm
    _cold()
    assert _hash(name, 3) == warm == cold  # warm -> cold


def test_description_edits_stay_in_their_run():
    spec = scenarios.get("tiny-smoke")
    _cold()
    cold = FrameworkBuilder(spec).build()
    first = FrameworkBuilder(spec).build()
    uid = "grisou-3"
    node = first.refapi.node(uid)
    first.refapi.update_node(
        dataclasses.replace(
            node, bios=dataclasses.replace(node.bios, c_states=True)),
        timestamp=10.0, message="operator fix")
    first.testbed.cluster("grisou").queue = "besteffort"
    assert first.refapi.node(uid).bios.c_states
    assert first.refapi.head.version != cold.refapi.head.version

    again = FrameworkBuilder(spec).build()
    assert again.refapi.testbed.node(uid) == cold.refapi.testbed.node(uid)
    assert not again.refapi.node(uid).bios.c_states
    assert again.testbed.cluster("grisou").queue == "default"
    assert again.refapi.head.version == cold.refapi.head.version
    assert again.refapi.testbed.to_doc() == cold.refapi.testbed.to_doc()
    assert [v.message for v in again.refapi.history] == ["initial import"]

    template, head = builder_mod._world_cache[spec.resolve_cluster_specs()]
    assert content_hash(head.doc) == head.version
    assert content_hash(template.to_doc()) == head.version
    assert again.testbed is not first.testbed is not template


def _write_trace(path, sizes):
    records = tuple(TraceRecord(submit_s=60.0 * i, nodes=n, walltime_s=3600.0,
                                run_s=600.0)
                    for i, n in enumerate(sizes))
    save_trace(WorkloadTrace(records, name="edited"), path)
    return records


def test_rewritten_trace_file_is_read_again(tmp_path):
    path = tmp_path / "edited.jsonl"
    spec = scenarios.get("trace-replay").derive(
        workload=TraceReplayConfig(path=str(path)))
    first = _write_trace(path, [1, 2, 3])
    fw = FrameworkBuilder(spec).build()
    assert fw.workload.trace.records == first
    assert spec.workload.load() is fw.workload.trace  # unchanged file: memo

    second = _write_trace(path, [4, 3, 2, 1, 1])
    fw = FrameworkBuilder(spec).build()
    assert fw.workload.trace.records == second


def test_second_build_of_the_same_specs_builds_no_testbed(monkeypatch):
    calls = []
    real = builder_mod.build_grid5000

    def counting(specs):
        calls.append(specs)
        return real(specs)

    monkeypatch.setattr(builder_mod, "build_grid5000", counting)
    _cold()
    spec = scenarios.get("paper-baseline")
    FrameworkBuilder(spec).build()
    # The miss hands over the original object: the inventory guard runs.
    assert len(calls) == 1 and calls[0] is CLUSTER_SPECS
    FrameworkBuilder(spec.derive(seed=11)).build()
    # Every cluster named: an equal tuple of specs, not the same object.
    named = spec.derive(clusters=tuple(s.name for s in CLUSTER_SPECS))
    assert named.resolve_cluster_specs() is not CLUSTER_SPECS
    FrameworkBuilder(named).build()
    assert len(calls) == 1


def _grisou_specs():
    """Six scenarios with distinct cluster-spec sets: grisou at 1..6 nodes."""
    grisou = next(s for s in CLUSTER_SPECS if s.name == "grisou")
    specs = [scenarios.get("tiny-smoke").derive(clusters=("grisou",),
                                                scale=n / grisou.nodes)
             for n in range(1, 7)]
    assert [s.resolve_cluster_specs()[0].nodes for s in specs] == \
        list(range(1, 7))
    return specs


def test_cache_keeps_the_newest_spec_sets():
    _cold()
    specs = _grisou_specs()
    for spec in specs:
        FrameworkBuilder(spec).build()
    assert list(builder_mod._world_cache) == \
        [s.resolve_cluster_specs()
         for s in specs[-builder_mod._WORLD_CACHE_MAX:]]


def test_threaded_builds_share_the_cache_safely():
    """Service sessions build in threads: concurrent hits, misses and
    evictions over more spec sets than the cache keeps leave it within its
    bound, and every build gets its own, correct testbed."""
    _cold()
    sets = _grisou_specs()
    results, errors = [], []

    def worker(offset):
        try:
            for i in range(12):
                spec = sets[(offset + i) % len(sets)]
                fw = FrameworkBuilder(spec).build()
                results.append((spec.resolve_cluster_specs(), fw))
        except Exception as exc:  # reported by the asserts below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 48
    assert len(builder_mod._world_cache) <= builder_mod._WORLD_CACHE_MAX
    assert len({id(fw.testbed) for _, fw in results}) == 48
    for specs, fw in results:
        assert fw.testbed.node_count == specs[0].nodes
        assert fw.refapi.head.version == content_hash(fw.testbed.to_doc())
