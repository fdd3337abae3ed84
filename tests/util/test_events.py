"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.util import Interrupt, SimulationError, Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_time_starts_at_custom_origin():
    assert Simulator(start=100.0).now == 100.0


def test_call_in_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_in(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_call_at_absolute_time():
    sim = Simulator(start=10.0)
    seen = []
    sim.call_at(25.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [25.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_equal_time_events_run_in_insertion_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_in(3.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.call_in(100.0, lambda: None)
    sim.run(until=40.0)
    assert sim.now == 40.0
    sim.run(until=200.0)
    assert sim.now == 200.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=50.0)
    with pytest.raises(SimulationError):
        sim.run(until=10.0)


def test_run_until_executes_boundary_events():
    sim = Simulator()
    seen = []
    sim.call_in(10.0, seen.append, "x")
    sim.run(until=10.0)
    assert seen == ["x"]


def test_process_timeout_sequence():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield sim.timeout(2.0)
        trace.append(sim.now)
        yield sim.timeout(3.0)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 2.0, 5.0]


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent(results):
        value = yield sim.process(child())
        results.append(value)

    results = []
    sim.process(parent(results))
    sim.run()
    assert results == [42]


def test_event_value_delivered_to_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    sim.process(waiter())
    sim.call_in(4.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    sim.process(waiter())
    sim.call_in(1.0, ev.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_callback_on_already_triggered_event_still_fires():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_any_of_triggers_on_first():
    sim = Simulator()
    results = []

    def proc():
        winner = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(2.0, "fast")])
        results.append((sim.now, list(winner.values())))

    sim.process(proc())
    sim.run()
    assert results == [(2.0, ["fast"])]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    times = []

    def proc():
        yield sim.all_of([sim.timeout(5.0), sim.timeout(2.0), sim.timeout(9.0)])
        times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [9.0]


def test_any_of_child_failure_raises_in_waiter():
    sim = Simulator()
    bad = sim.event()
    caught = []

    def proc():
        try:
            yield sim.any_of([bad, sim.timeout(2.0)])
        except RuntimeError as exc:
            caught.append((sim.now, str(exc)))

    sim.process(proc())
    sim.call_in(1.0, bad.fail, RuntimeError("child died"))
    sim.run()
    assert caught == [(1.0, "child died")]


def test_any_of_success_value_excludes_failed_children():
    sim = Simulator()
    ok = sim.event()
    bad = sim.event()
    results = []

    def proc():
        value = yield sim.any_of([ok, bad])
        results.append(dict(value))

    sim.process(proc())
    # Both trigger at t=1; the success lands first, so AnyOf succeeds —
    # but the failed sibling must not leak its exception into the dict.
    sim.call_in(1.0, ok.succeed, "fine")
    sim.call_in(1.0, bad.fail, RuntimeError("too late to matter"))
    sim.run()
    assert results == [{ok: "fine"}]


def test_all_of_first_failure_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def proc():
        try:
            yield sim.all_of([sim.timeout(1.0), ev, sim.timeout(9.0)])
        except ValueError as exc:
            caught.append((sim.now, str(exc)))

    sim.process(proc())
    sim.call_in(3.0, ev.fail, ValueError("phase exploded"))
    sim.run()
    # Fails at the child's failure time, without waiting for the slow child.
    assert caught == [(3.0, "phase exploded")]


def test_all_of_ignores_children_after_failure():
    sim = Simulator()
    bad1 = sim.event()
    bad2 = sim.event()
    caught = []

    def proc():
        try:
            yield sim.all_of([bad1, bad2, sim.timeout(5.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.call_in(1.0, bad1.fail, RuntimeError("first"))
    sim.call_in(2.0, bad2.fail, RuntimeError("second"))
    sim.run()  # the second failure must not re-trigger the combinator
    assert caught == ["first"]


def test_all_of_failure_then_completion_is_quiet():
    sim = Simulator()
    ev = sim.event()
    combo_holder = []

    def proc():
        combo = sim.all_of([ev, sim.timeout(1.0)])
        combo_holder.append(combo)
        try:
            yield combo
        except RuntimeError:
            pass

    sim.process(proc())
    sim.call_in(0.5, ev.fail, RuntimeError("early"))
    sim.run()  # the timeout still triggers at t=1 into the failed combinator
    assert combo_holder[0].triggered and not combo_holder[0].ok


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            trace.append("finished")
        except Interrupt as itr:
            trace.append(("interrupted", sim.now, itr.cause))

    proc = sim.process(sleeper())
    sim.call_in(3.0, proc.interrupt, "stop now")
    sim.run()
    assert trace == [("interrupted", 3.0, "stop now")]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.call_in(5.0, proc.interrupt)
    sim.run()
    assert proc.triggered


def test_stale_timeout_after_interrupt_does_not_double_resume():
    sim = Simulator()
    wakeups = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            wakeups.append("timeout")
        except Interrupt:
            wakeups.append("interrupt")
            yield sim.timeout(50.0)
            wakeups.append("second sleep done")

    proc = sim.process(sleeper())
    sim.call_in(2.0, proc.interrupt)
    sim.run()
    # the original 10s timeout must NOT wake the process a second time
    assert wakeups == ["interrupt", "second sleep done"]
    assert sim.now == 52.0


def test_unhandled_interrupt_kills_process():
    sim = Simulator()

    def stubborn():
        yield sim.timeout(10.0)

    proc = sim.process(stubborn())
    sim.call_in(1.0, proc.interrupt)
    sim.run()
    assert proc.triggered
    assert not proc.alive


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 123

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_resource_serializes_access():
    sim = Simulator()
    res = sim.resource(capacity=1)
    spans = []

    def user(name, hold):
        req = res.request()
        yield req
        start = sim.now
        yield sim.timeout(hold)
        res.release(req)
        spans.append((name, start, sim.now))

    sim.process(user("a", 5.0))
    sim.process(user("b", 3.0))
    sim.run()
    assert spans == [("a", 0.0, 5.0), ("b", 5.0, 8.0)]


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    res = sim.resource(capacity=2)
    done = []

    def user(name):
        req = res.request()
        yield req
        yield sim.timeout(4.0)
        res.release(req)
        done.append((name, sim.now))

    for name in "abc":
        sim.process(user(name))
    sim.run()
    assert done == [("a", 4.0), ("b", 4.0), ("c", 8.0)]


def test_resource_release_without_request_raises():
    sim = Simulator()
    res = sim.resource(capacity=1)
    with pytest.raises(SimulationError):
        res.release(sim.event())  # never requested, holds no slot
    # a queued-but-not-granted request cannot be released either
    res.request()
    queued = res.request()
    with pytest.raises(SimulationError):
        res.release(queued)


def test_resource_double_release_with_request_raises():
    sim = Simulator()
    res = sim.resource(capacity=2)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_counters():
    sim = Simulator()
    res = sim.resource(capacity=2)
    first = res.request()
    assert res.available == 1
    res.request()
    assert res.available == 0
    res.request()  # queued
    assert res.queue_length == 1
    res.release(first)
    sim.run()
    assert res.queue_length == 0
    assert res.available == 0


def test_many_processes_complete():
    sim = Simulator()
    count = []

    def proc(i):
        yield sim.timeout(float(i % 17))
        count.append(i)

    for i in range(500):
        sim.process(proc(i))
    sim.run()
    assert len(count) == 500


# -- timeout fast path & lazy cancellation ------------------------------------


def test_fast_path_preserves_order_with_same_time_callbacks():
    # A process waiting on a timeout and a call_in callback landing at the
    # same instant: the callback was scheduled *after* the timeout, but the
    # process resume consumes a fresh (time, seq) slot at fire time, so the
    # callback must still run first — exactly as the pre-fast-path kernel
    # ordered it.
    sim = Simulator()
    order = []

    def sleeper():
        yield sim.timeout(5.0)
        order.append("process")

    sim.process(sleeper())
    sim.call_in(5.0, order.append, "callback")
    sim.run()
    assert order == ["callback", "process"]


def test_fast_path_resumes_processes_in_creation_order():
    sim = Simulator()
    order = []

    def sleeper(name):
        yield sim.timeout(2.0)
        order.append(name)

    for name in "abc":
        sim.process(sleeper(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_timeout_with_external_callback_and_waiter_keeps_order():
    # Registration order must survive the fast path being demoted: the
    # process fast-registers first (at t=0), the external callback arrives
    # at t=1 and demotes the registration — the process must still resume
    # before the callback runs, exactly as the generic path ordered it.
    sim = Simulator()
    order = []

    def waiter(t):
        got = yield t
        order.append(("process", got))

    t = sim.timeout(3.0, "val")
    sim.process(waiter(t))
    sim.call_in(1.0, t.add_callback,
                lambda ev: order.append(("callback", ev.value)))
    sim.run()
    assert order == [("process", "val"), ("callback", "val")]


def test_timeout_cancel_prevents_fire():
    sim = Simulator()
    fired = []
    t = sim.timeout(10.0, "x")
    t.add_callback(lambda ev: fired.append(ev.value))
    t.cancel()
    sim.run()
    assert fired == []
    assert not t.triggered


def test_timeout_cancel_after_fire_is_noop():
    sim = Simulator()
    t = sim.timeout(1.0, "x")
    sim.run()
    assert t.triggered
    t.cancel()  # must not raise or corrupt anything
    sim.call_in(1.0, lambda: None)
    sim.run()


def test_timeout_cancel_while_process_waits_is_loud():
    sim = Simulator()

    def sleeper(holder):
        holder.append(sim.timeout(10.0))
        yield holder[0]

    holder = []
    sim.process(sleeper(holder))
    sim.run(until=1.0)  # let the process register on the timeout
    with pytest.raises(SimulationError):
        holder[0].cancel()


def test_interrupt_lazily_cancels_pending_timeout():
    # An interrupted hour-long sleep must not leave its heap entry behind:
    # the simulation ends at the interrupt, not at the dead timer.
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(3600.0)
        except Interrupt:
            pass

    proc = sim.process(sleeper())
    sim.call_in(2.0, proc.interrupt)
    end = sim.run()
    assert end == 2.0  # pre-cancellation kernels dragged this to 3600


def test_cancelled_watchdogs_do_not_accumulate_in_heap():
    # The CI-server pattern: fast work raced against a long watchdog which
    # is cancelled each round.  Lazy cancellation + compaction must keep
    # the heap flat instead of hoarding one dead timer per round.
    sim = Simulator()

    def loop():
        for _ in range(500):
            work = sim.timeout(1.0, "done")
            watchdog = sim.timeout(10_000.0, "timeout")
            got = yield sim.any_of([work, watchdog])
            assert "done" in got.values()
            watchdog.cancel()

    sim.process(loop())
    peak = 0

    def probe():
        nonlocal peak
        peak = max(peak, len(sim._heap))
        if sim.now < 499.0:
            sim.call_in(7.0, probe)

    sim.call_in(3.0, probe)
    sim.run()
    # every watchdog was cancelled: the run ends when the real work does,
    # instead of coasting to the last dead timer's fire time
    assert sim.now == 500.0
    assert peak < 128


def test_cancelled_and_live_timeouts_interleave_correctly():
    sim = Simulator()
    seen = []
    keep = [sim.timeout(float(i), i) for i in range(1, 11)]
    drop = [sim.timeout(float(i) + 0.5, -i) for i in range(1, 11)]
    for t in keep:
        t.add_callback(lambda ev: seen.append(ev.value))
    for t in drop:
        t.add_callback(lambda ev: seen.append(ev.value))
        t.cancel()
    sim.run()
    assert seen == list(range(1, 11))


def test_run_until_drains_instant_entries_before_advancing():
    sim = Simulator()
    order = []
    sim.call_in(1.0, order.append, "future")
    sim.call_in(0.0, order.append, "instant")
    sim.run(until=0.0)
    assert order == ["instant"]
    assert sim.now == 0.0
    sim.run(until=1.0)
    assert order == ["instant", "future"]
    assert sim.now == 1.0


def test_zero_delay_timeout_still_fires():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [0.0]


def test_interrupt_between_fire_and_resume_wins():
    # The timeout fires and the interrupt lands in the same instant, after
    # the fire: the queued resume is stale and the interrupt must win.
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield sim.timeout(1.0)
            trace.append("timeout")
        except Interrupt:
            trace.append("interrupt")

    proc = sim.process(sleeper())

    def fire_interrupt():
        # runs at t=1.0 *before* the timeout's queued resume drains
        proc.interrupt()

    sim.call_in(1.0, fire_interrupt)
    sim.run()
    assert trace == ["interrupt"]


def test_cancel_zero_delay_timeout_prevents_fire():
    sim = Simulator()
    fired = []
    t = sim.timeout(0.0, "x")
    t.add_callback(lambda ev: fired.append(ev.value))
    t.cancel()
    sim.run()
    assert fired == []
    assert not t.triggered


def test_waiting_on_cancelled_timeout_is_loud():
    sim = Simulator()
    t = sim.timeout(10.0)
    t.cancel()
    with pytest.raises(SimulationError):
        t.add_callback(lambda ev: None)


def test_rewaiting_timeout_killed_by_interrupt_is_loud():
    # Interrupting a fast-waiting process retires its timeout; a second
    # process trying to wait on that timeout later must fail loudly
    # instead of sleeping forever on a fire that will never come.
    sim = Simulator()

    def first(t):
        try:
            yield t
        except Interrupt:
            pass

    def second(t):
        yield t

    t = sim.timeout(10.0)
    proc = sim.process(first(t))
    sim.call_in(1.0, proc.interrupt)

    def late_wait():
        sim.process(second(t))

    sim.call_in(2.0, late_wait)
    with pytest.raises(SimulationError):
        sim.run()
