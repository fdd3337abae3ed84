"""Tests of the benchmark's own logic.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402
from layers import Spans, layer_of  # noqa: E402
from spans import (RoundTimer, SpanRecorder, Tracer, adopt_roots,  # noqa: E402
                   self_times)
from worker import report_sha  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    root = rec.begin(rec.name_id("run_scenario"))       # 0 .. 10
    clock.t = 1.0
    a = rec.begin(rec.name_id("Simulator.run"))         # 1 .. 8
    clock.t = 2.0
    b = rec.begin(rec.name_id("OarServer.submit"))      # 2 .. 5
    clock.t = 3.0
    c = rec.begin(rec.name_id("Gantt.profile_earliest"))  # 3 .. 4
    clock.t = 4.0
    rec.finish(c)
    clock.t = 5.0
    rec.finish(b)
    clock.t = 6.0
    d = rec.begin(rec.name_id("step:repro.oar.server"))  # 6 .. 7.5
    clock.t = 7.5
    rec.finish(d)
    clock.t = 8.0
    rec.finish(a)
    clock.t = 10.0
    rec.finish(root)
    arr = rec.arrays()
    st = self_times(arr["start"], arr["end"], arr["parent"])
    assert st.tolist() == pytest.approx([3.0, 2.5, 2.0, 1.0, 1.5])
    # the self times of a tree always add up to its root's duration
    assert st.sum() == pytest.approx(10.0)
    sp = Spans(arr, rec.names)
    layers = sp.layer_self()
    # the benchmark's own run span: what no layer span covers
    assert layers["unattributed"] == pytest.approx(3.0)
    assert layers["events"] == pytest.approx(2.5)
    assert layers["oar"] == pytest.approx(2.0 + 1.5)
    assert layers["oar.gantt"] == pytest.approx(1.0)
    # report time: from the last child's end to the run's end
    assert sp.tail_after_children("run_scenario") == pytest.approx(2.0)


def test_coverage_check_fails_when_layer_spans_are_missing():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    root = rec.begin(rec.name_id("run_scenario"))       # 0 .. 10
    clock.t = 1.0
    sim = rec.begin(rec.name_id("Simulator.run"))       # 1 .. 8
    clock.t = 8.0
    rec.finish(sim)
    clock.t = 10.0
    rec.finish(root)
    layers = Spans(rec.arrays(), rec.names).layer_self()
    v = run.Verdict()
    # 3 s of the run span's own time are covered by no layer span
    assert run.check_coverage(layers, 10.0, v) == pytest.approx(0.7)
    assert v.attempted == 1 and len(v.failures) == 1
    v = run.Verdict()
    layers["unattributed"] = 0.2
    layers["events"] = 9.8
    assert run.check_coverage(layers, 10.0, v) == pytest.approx(0.98)
    assert not v.failures


def test_layer_of_dispatch_spans_uses_the_defining_module():
    assert layer_of("step:repro.oar.gantt") == "oar.gantt"
    assert layer_of("step:repro.oar.workload") == "oar"
    assert layer_of("cb:repro.scheduling.elastic") == "scheduling.elastic"
    assert layer_of("cb:repro.scheduling.launcher") == "scheduling"
    assert layer_of("step:repro.checks.g5kchecks") == "checksuite"
    assert layer_of("step:repro.kavlan.manager") == "other"
    assert layer_of("Kwapi.sample_park") == "monitoring"
    assert layer_of("SocketTransport.recv_line") == "service"


def test_adopt_roots_nests_server_spans_in_the_innermost_client_span():
    outer = {"name": np.array([0, 1]), "start": np.array([0.0, 1.0]),
             "end": np.array([10.0, 9.0]), "parent": np.array([-1, 0]),
             "run": np.array([0, 0])}
    inner = {"name": np.array([2, 3]), "start": np.array([2.0, 3.0]),
             "end": np.array([8.0, 4.0]), "parent": np.array([-1, 0]),
             "run": np.array([0, 0])}
    merged = adopt_roots(outer, inner)
    assert merged["parent"].tolist() == [-1, 0, 1, 2]
    st = self_times(merged["start"], merged["end"], merged["parent"])
    assert st.sum() == pytest.approx(10.0)


# -- percentiles -------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([float(i) for i in range(100)], 95)  # 5 beyond
    samples = [float(i) for i in range(200)]
    p95 = stats.percentile(samples, 95)
    assert p95 == 189.0 and stats.beyond(samples, p95) == 10
    assert stats.percentile(samples, 50) == 99.0


def test_percentile_counts_ties_as_not_beyond():
    # 190 equal values then 10 larger: p95 lands on the tie, 10 beyond
    samples = [1.0] * 190 + [2.0] * 10
    assert stats.percentile(samples, 95) == 1.0
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([1.0] * 191 + [2.0] * 9, 95)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)


# -- probes on a real world --------------------------------------------------


def _elastic_world(months: float):
    from repro import run_scenario, scenarios
    spec = scenarios.get("elastic-burst").derive(strategy="steal-agreement")
    return run_scenario(spec, seed=0, months=months)


def test_round_timer_wraps_each_tick_once_on_an_elastic_strategy():
    from repro.scheduling.elastic import StealAgreementStrategy
    from repro.util.simclock import MONTH

    timer = RoundTimer().install()
    strategies = []
    timer.on_strategy.append(strategies.append)
    try:
        fw, _ = _elastic_world(0.02)
    finally:
        timer.uninstall()
    (strategy,) = strategies
    # on_tick is overridden along the hierarchy (CommonPool -> Default);
    # the instance wrapper still sees each tick once
    assert isinstance(strategy, StealAgreementStrategy)
    tick_s = fw.scheduler.tick_s
    ticks = int(0.02 * MONTH // tick_s) + 1
    assert timer.ticks == ticks
    # ticks without a due cell are not decision rounds
    assert 0 < len(timer.samples_ms) < ticks
    # uninstalled: the next world is not timed
    _elastic_world(0.002)
    assert timer.ticks == ticks and len(timer.worlds) == 1


def _kernel_log() -> list:
    from repro.util.events import Interrupt, SimulationError, Simulator

    sim = Simulator()
    log: list = []

    def sleeper():
        try:
            yield sim.timeout(10)
            log.append(("sleeper", "woke", sim.now))
        except Interrupt as exc:
            log.append(("sleeper", "interrupted", exc.cause, sim.now))
            yield sim.timeout(1)
            log.append(("sleeper", "after", sim.now))
        return "slept"

    def victim():
        yield sim.timeout(10)  # dies of the uncaught Interrupt

    def failing_wait():
        ev = sim.event()
        sim.call_in(2, ev.fail, SimulationError("boom"))
        try:
            yield ev
        except SimulationError as exc:
            log.append(("failing", str(exc), sim.now))

    def controller(p, q):
        yield sim.timeout(3)
        p.interrupt("stop")
        q.interrupt("stop")
        value = yield p
        log.append(("controller", value, q.alive, sim.now))

    p = sim.process(sleeper())
    q = sim.process(victim())
    sim.process(failing_wait())
    sim.process(controller(p, q))
    q.add_callback(lambda ev: log.append(("victim-done", ev.value, sim.now)))
    sim.run()
    return log


def test_step_proxy_keeps_throw_and_interrupt_semantics():
    plain = _kernel_log()
    tracer = Tracer().install()
    try:
        traced = _kernel_log()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert ("sleeper", "interrupted", "stop", 3.0) in plain
    assert ("controller", "slept", False, 4.0) in plain
    names = tracer.rec.names
    assert any(n.startswith("step:") for n in names)


def test_traced_report_equals_untraced_and_uninstall_restores():
    from repro import run_scenario, scenarios
    from repro.core.builder import FrameworkBuilder, default_registry
    from repro.util.events import Event, Simulator

    originals = (Simulator.process, Simulator.run, Event.add_callback,
                 FrameworkBuilder.build, default_registry().factory("testbed"))
    spec = scenarios.get("tiny-smoke")
    _, plain = run_scenario(spec, seed=3, months=0.03)
    tracer = Tracer().install()
    timer = RoundTimer()
    timer.on_strategy.append(tracer.wrap_strategy)
    timer.install()
    try:
        _, traced = run_scenario(spec, seed=3, months=0.03)
    finally:
        timer.uninstall()
        tracer.uninstall()
    assert report_sha(traced.to_dict()) == report_sha(plain.to_dict())
    counts = tracer.rec.counts
    assert counts["events.processes"] > 0
    assert counts["scheduling.launches"] > 0
    assert (Simulator.process, Simulator.run, Event.add_callback,
            FrameworkBuilder.build,
            default_registry().factory("testbed")) == originals


# -- the result line ---------------------------------------------------------


def test_benchmark_json_names_every_metric_the_runner_prints():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    for m in bench["end_to_end"]:
        assert m["unit"] == dict(run.END_TO_END)[m["name"]]
    sp = Spans({k: np.zeros(0, dtype=t) for k, t in
                (("name", np.int32), ("start", float), ("end", float),
                 ("parent", np.int32), ("run", np.int32))}, [])
    names = set(run.per_layer_names(sp))
    assert names == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
