"""Trace model, SWF/JSONL parsing, recording, and replay."""

import json

import pytest

from repro import run_scenario, scenarios
from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import (
    JobState,
    OarDatabase,
    OarServer,
    TraceRecord,
    TraceRecorder,
    TraceReplayConfig,
    TraceReplayGenerator,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadTrace,
    load_trace,
    parse_swf,
    save_trace,
)
from repro.oar.traces import builtin_trace_names, record_from_job, trace_to_swf
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import DAY, HOUR, ParseError, RngStreams, Simulator


def make_world(seed=6, clusters=("grisou", "grimoire")):
    specs = [s for s in CLUSTER_SPECS if s.name in clusters]
    testbed = build_grid5000(specs)
    sim = Simulator()
    rngs = RngStreams(seed=seed)
    park = MachinePark.from_testbed(sim, testbed, rngs)
    oar = OarServer(sim, OarDatabase(ReferenceApi(testbed), ServiceHealth()), park)
    return sim, oar, testbed, rngs


def simple_trace():
    return WorkloadTrace((
        TraceRecord(submit_s=100.0, nodes=2, walltime_s=3600.0, run_s=1800.0,
                    cluster="grisou", user="alice", job_id=1),
        TraceRecord(submit_s=40.0, nodes=1, walltime_s=1800.0, run_s=900.0,
                    cluster="grimoire", user="bob", job_id=2),
        TraceRecord(submit_s=250.0, nodes=4, walltime_s=7200.0, run_s=7200.0,
                    user="carol", job_id=3),
    ), name="simple")


# -- model ---------------------------------------------------------------------


def test_record_validation():
    with pytest.raises(ValueError):
        TraceRecord(submit_s=0.0, nodes=0, walltime_s=60.0, run_s=30.0)
    with pytest.raises(ValueError):
        TraceRecord(submit_s=0.0, nodes=1, walltime_s=0.0, run_s=30.0)


def test_trace_sorted_and_rebased():
    trace = simple_trace().sorted()
    assert [r.job_id for r in trace] == [2, 1, 3]
    rebased = trace.rebased()
    assert [r.submit_s for r in rebased] == [0.0, 60.0, 210.0]
    assert rebased.span_s == trace.span_s == 210.0


def test_time_scale_compresses_timestamps_not_durations():
    scaled = simple_trace().sorted().scaled(time_scale=0.5)
    assert [r.submit_s for r in scaled] == [20.0, 50.0, 125.0]
    assert [r.walltime_s for r in scaled] == [1800.0, 3600.0, 7200.0]


def test_load_scale_duplicates_and_thins_deterministically():
    trace = simple_trace().sorted()
    doubled = trace.scaled(load_scale=2.0)
    assert len(doubled) == 6
    assert [r.job_id for r in doubled] == [2, None, 1, None, 3, None]
    halved = trace.scaled(load_scale=0.5)
    assert len(halved) == 1  # every other record survives
    again = trace.scaled(load_scale=0.5)
    assert halved.records == again.records  # no RNG involved
    with pytest.raises(ValueError):
        trace.scaled(load_scale=0.0)


def test_stats_shape():
    stats = simple_trace().stats()
    assert stats["jobs"] == 3
    assert stats["nodes_max"] == 4
    assert stats["clusters"] == ["grimoire", "grisou"]
    assert stats["users"] == 3
    assert WorkloadTrace(()).stats() == {"jobs": 0, "span_s": 0.0}


# -- SWF parsing ---------------------------------------------------------------

_SWF_SAMPLE = """\
; UnixStartTime: 0
; MaxNodes: 128
1  0  10  3600  4 -1 -1  4  7200 -1 1 7 -1 -1 -1 -1 -1 -1
2 60  -1  1800  8 -1 -1 -1  3600 -1 1 9 -1 -1 -1 -1 -1 -1
3 90   5   600 -1 -1 -1 -1    -1 -1 0 3 -1 -1 -1 -1 -1 -1
4 120  0   900  2 -1 -1  2    -1 -1 1 4 -1 -1 -1 -1 -1 -1
"""


def test_parse_swf_maps_and_falls_back():
    trace = parse_swf(_SWF_SAMPLE, name="sample")
    # job 3 has no usable size (-1 requested and allocated): skipped
    assert [r.job_id for r in trace] == [1, 2, 4]
    first, second, third = trace.records
    assert (first.submit_s, first.nodes, first.walltime_s, first.run_s) == \
        (0.0, 4, 7200.0, 3600.0)
    assert second.nodes == 8          # requested -1 -> allocated
    assert third.walltime_s == 900.0  # requested time -1 -> run time
    assert first.user == "user7"


def test_parse_swf_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_swf("1 2 3")
    with pytest.raises(ParseError):
        parse_swf("a b c d e f g h i j k l m n o p q r")


def test_swf_round_trip():
    trace = simple_trace().sorted().rebased()
    back = parse_swf(trace_to_swf(trace))
    assert len(back) == len(trace)
    # SWF has whole-second resolution and no cluster column
    assert [r.nodes for r in back] == [r.nodes for r in trace]
    assert [r.submit_s for r in back] == [0.0, 60.0, 210.0]


# -- JSONL persistence ---------------------------------------------------------


def test_jsonl_round_trip_is_exact(tmp_path):
    trace = simple_trace()
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    back = load_trace(path)
    assert back.records == trace.records
    assert back.name == "simple"  # header carries the name


def test_jsonl_tolerates_torn_tail(tmp_path):
    trace = simple_trace()
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"submit_s": 1, "nodes":')  # killed mid-append
    back = load_trace(path)
    assert len(back) == 3


def test_load_trace_rejects_incomplete_record_cleanly(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"nodes": 1, "walltime_s": 5}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="submit_s"):
        load_trace(path)


def test_load_trace_builtin_and_unknown():
    assert "tiny-g5k" in builtin_trace_names()
    trace = load_trace("tiny-g5k")
    assert len(trace) > 100
    assert trace.name == "tiny-g5k"
    with pytest.raises(FileNotFoundError):
        load_trace("no-such-trace")


# -- recording -----------------------------------------------------------------


def test_recorder_captures_generator_submissions():
    sim, oar, testbed, rngs = make_world()
    gen = WorkloadGenerator(sim, oar, testbed, rngs,
                            WorkloadConfig(target_utilization=0.4))
    recorder = TraceRecorder(gen, name="captured")
    gen.start()
    sim.run(until=12 * HOUR)
    assert len(recorder) == gen.submitted > 0
    trace = recorder.trace()
    for record, job in zip(trace, (oar.jobs[i] for i in sorted(oar.jobs))):
        assert record.submit_s == job.submitted_at
        assert record.walltime_s == job.walltime_s
        assert record.user == job.user
        assert record.cluster in ("grisou", "grimoire")


def test_record_from_job_resolves_all_nodes_requests():
    sim, oar, testbed, _ = make_world()
    job = oar.submit("cluster='grimoire'/nodes=ALL,walltime=1",
                     auto_duration=600.0)
    sim.run(until=1.0)
    record = record_from_job(job)
    assert record.nodes == testbed.cluster("grimoire").node_count
    # an unassigned ALL request has no concrete size: not recordable
    blocked = oar.submit("cluster='absent'/nodes=ALL,walltime=1")
    assert blocked.state == JobState.WAITING
    assert record_from_job(blocked) is None


# -- replay --------------------------------------------------------------------


def test_replay_submits_at_recorded_timestamps():
    sim, oar, testbed, _ = make_world()
    replay = TraceReplayGenerator(sim, oar, simple_trace(), testbed=testbed)
    replay.start()
    sim.run(until=DAY)
    assert replay.submitted == 3
    jobs = [oar.jobs[i] for i in sorted(oar.jobs)]
    # sorted + rebased: submissions at 0, 60, 210
    assert [j.submitted_at for j in jobs] == [0.0, 60.0, 210.0]
    assert [j.user for j in jobs] == ["bob", "alice", "carol"]
    assert [len(j.assignment) for j in jobs] == [1, 2, 4]
    assert all(j.state == JobState.TERMINATED for j in jobs)


def test_replay_clamps_unknown_cluster_and_oversize():
    sim, oar, testbed, _ = make_world(clusters=("grimoire",))  # 8 nodes
    trace = WorkloadTrace((
        TraceRecord(submit_s=0.0, nodes=4, walltime_s=3600.0, run_s=60.0,
                    cluster="paravance"),   # not in this world
        TraceRecord(submit_s=10.0, nodes=500, walltime_s=3600.0, run_s=60.0,
                    cluster="grimoire"),    # wider than the cluster
    ))
    replay = TraceReplayGenerator(sim, oar, trace, testbed=testbed)
    replay.start()
    sim.run(until=3 * HOUR)
    jobs = [oar.jobs[i] for i in sorted(oar.jobs)]
    assert jobs[0].request.expr is None  # cluster pin dropped
    assert jobs[0].state == JobState.TERMINATED
    assert jobs[1].request.count == 8    # clamped to cluster size
    assert jobs[1].state == JobState.TERMINATED


def test_replay_stop_is_prompt():
    sim, oar, testbed, _ = make_world()
    records = tuple(
        TraceRecord(submit_s=600.0 * i, nodes=1, walltime_s=1800.0, run_s=60.0,
                    cluster="grisou")
        for i in range(50))
    replay = TraceReplayGenerator(sim, oar, WorkloadTrace(records),
                                  testbed=testbed)
    replay.start()
    sim.run(until=3000.0)
    count = replay.submitted
    replay.stop()
    sim.run()
    assert replay.submitted == count


def test_replay_scales_apply():
    sim, oar, testbed, _ = make_world()
    replay = TraceReplayGenerator(sim, oar, simple_trace(), testbed=testbed,
                                  time_scale=0.5, load_scale=2.0)
    replay.start()
    sim.run(until=DAY)
    assert replay.submitted == 6
    times = sorted(j.submitted_at for j in oar.jobs.values())
    assert times == [0.0, 0.0, 30.0, 30.0, 105.0, 105.0]


# -- end to end through the scenario layer -------------------------------------


def test_trace_replay_config_spec_round_trip():
    spec = scenarios.get("trace-replay")
    assert isinstance(spec.workload, TraceReplayConfig)
    back = scenarios.ScenarioSpec.from_json(spec.to_json())
    assert back == spec
    assert back.content_hash() == spec.content_hash()


def test_recorded_run_replays_with_identical_job_count(tmp_path):
    """record -> save -> load -> replay: the replayed world sees exactly
    the recorded workload, and the replay is byte-deterministic."""
    from repro.oar.traces import record_scenario

    base = scenarios.get("tiny-smoke")
    trace = record_scenario(base, seed=2, months=0.05)
    path = tmp_path / "rec.jsonl"
    save_trace(trace, path)

    replay_spec = base.derive(
        name="tiny-replayed",
        workload=TraceReplayConfig(path=str(path)))
    fw1, report1 = run_scenario(replay_spec, seed=2, months=0.05)
    assert fw1.workload.submitted == len(trace)

    fw2, report2 = run_scenario(replay_spec, seed=2, months=0.05)
    assert json.dumps(report1.to_dict(), sort_keys=True) == \
        json.dumps(report2.to_dict(), sort_keys=True)


# -- allocated vs requested processors (SWF fields 5 and 8) --------------------


def test_parse_swf_carries_allocated_alongside_requested():
    trace = parse_swf(_SWF_SAMPLE, name="sample")
    first, second, third = trace.records
    assert (first.nodes, first.alloc_nodes) == (4, 4)
    assert (second.nodes, second.alloc_nodes) == (8, 8)  # req -1 -> alloc
    assert (third.nodes, third.alloc_nodes) == (2, 2)


def test_parse_swf_missing_alloc_is_none():
    line = "1 0 10 3600 -1 -1 -1 4 7200 -1 1 7 -1 -1 -1 -1 -1 -1"
    (rec,) = parse_swf(line).records
    assert rec.nodes == 4 and rec.alloc_nodes is None


def test_swf_round_trip_preserves_both_processor_fields():
    trace = WorkloadTrace((
        TraceRecord(submit_s=0.0, nodes=4, walltime_s=3600.0, run_s=600.0,
                    job_id=1, alloc_nodes=3),
        TraceRecord(submit_s=60.0, nodes=2, walltime_s=1800.0, run_s=300.0,
                    job_id=2),  # no allocation recorded
    ))
    text = trace_to_swf(trace)
    row1, row2 = [l.split() for l in text.splitlines()
                  if not l.startswith(";")]
    # field 5 (index 4) = allocated (falls back to requested), field 8
    # (index 7) = requested
    assert (row1[4], row1[7]) == ("3", "4")
    assert (row2[4], row2[7]) == ("2", "2")
    back = parse_swf(text)
    assert [(r.nodes, r.alloc_nodes) for r in back] == [(4, 3), (2, 2)]


def test_jsonl_round_trip_preserves_alloc_nodes(tmp_path):
    trace = WorkloadTrace((
        TraceRecord(submit_s=0.0, nodes=4, walltime_s=3600.0, run_s=600.0,
                    alloc_nodes=3),
        TraceRecord(submit_s=60.0, nodes=2, walltime_s=1800.0, run_s=300.0),
    ), name="alloc")
    path = tmp_path / "alloc.jsonl"
    save_trace(trace, path)
    back = load_trace(path)
    assert [(r.nodes, r.alloc_nodes) for r in back] == [(4, 3), (2, None)]
    # Records without an allocation serialize without the key at all, so
    # pre-existing JSONL traces remain byte-identical.
    docs = [json.loads(l) for l in path.read_text().splitlines()[1:]]
    assert "alloc_nodes" in docs[0] and "alloc_nodes" not in docs[1]


def test_scaling_preserves_alloc_nodes():
    trace = WorkloadTrace((
        TraceRecord(submit_s=10.0, nodes=4, walltime_s=3600.0, run_s=600.0,
                    alloc_nodes=3),
    ))
    scaled = trace.rebased().scaled(time_scale=0.5, load_scale=2.0)
    assert [r.alloc_nodes for r in scaled.records] == [3, 3]


# -- elastic replay ------------------------------------------------------------


def test_elastic_replay_widens_requests_into_ranges():
    sim, oar, testbed, _ = make_world()
    replay = TraceReplayGenerator(sim, oar, simple_trace(), testbed=testbed,
                                  elastic_min_scale=0.5,
                                  elastic_max_scale=2.0)
    replay.start()
    sim.run(until=DAY)
    jobs = [oar.jobs[i] for i in sorted(oar.jobs)]
    requests = [j.request for j in jobs]  # bob(1), alice(2), carol(4)
    assert [(r.min_nodes, r.count, r.max_nodes) for r in requests] == \
        [(1, 1, 2), (1, 2, 4), (2, 4, 8)]
    assert all(r.malleable for r in requests)
    # Placement stays at the preferred width.
    assert [len(j.assignment) for j in jobs] == [1, 2, 4]


def test_elastic_replay_clamps_range_to_cluster_size():
    sim, oar, testbed, _ = make_world(clusters=("grimoire",))  # 8 nodes
    trace = WorkloadTrace((
        TraceRecord(submit_s=0.0, nodes=6, walltime_s=3600.0, run_s=60.0,
                    cluster="grimoire"),
    ))
    replay = TraceReplayGenerator(sim, oar, trace, testbed=testbed,
                                  elastic_min_scale=0.5,
                                  elastic_max_scale=2.0)
    replay.start()
    sim.run(until=HOUR)
    (job,) = oar.jobs.values()
    req = job.request
    assert (req.min_nodes, req.count, req.max_nodes) == (3, 6, 8)


def test_default_scales_replay_rigid_requests():
    sim, oar, testbed, _ = make_world()
    replay = TraceReplayGenerator(sim, oar, simple_trace(), testbed=testbed)
    replay.start()
    sim.run(until=DAY)
    assert not any(j.request.malleable for j in oar.jobs.values())


def test_trace_replay_config_validates_elastic_scales():
    with pytest.raises(ValueError, match="elastic_min_scale"):
        TraceReplayConfig(elastic_min_scale=1.5)
    with pytest.raises(ValueError, match="elastic_min_scale"):
        TraceReplayConfig(elastic_min_scale=0.0)
    with pytest.raises(ValueError, match="elastic_max_scale"):
        TraceReplayConfig(elastic_max_scale=0.5)


def test_elastic_burst_preset_round_trips():
    spec = scenarios.get("elastic-burst")
    assert spec.workload.elastic_min_scale == 0.5
    assert spec.workload.elastic_max_scale == 2.0
    back = scenarios.ScenarioSpec.from_json(spec.to_json())
    assert back == spec
