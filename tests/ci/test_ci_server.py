"""Tests for the Jenkins-shaped server."""

import pytest

from repro.ci import BuildStatus, JenkinsServer
from repro.util import CiError, Simulator


@pytest.fixture()
def jenkins():
    sim = Simulator()
    return sim, JenkinsServer(sim, executors=2)


def quick_runner(sim, duration=60.0, status=BuildStatus.SUCCESS):
    def runner(build):
        build.log_line(sim.now, "doing work")
        yield sim.timeout(duration)
        return status

    return runner


def test_register_and_trigger(jenkins):
    sim, server = jenkins
    server.register_job("smoke", quick_runner(sim))
    build = server.trigger("smoke", parameters={"cluster": "grisou"}, cause="test")
    sim.run()
    assert build.status == BuildStatus.SUCCESS
    assert build.duration_s == 60.0
    assert build.parameters == {"cluster": "grisou"}


def test_duplicate_job_rejected(jenkins):
    sim, server = jenkins
    server.register_job("a", quick_runner(sim))
    with pytest.raises(CiError):
        server.register_job("a", quick_runner(sim))


def test_unknown_job_rejected(jenkins):
    _, server = jenkins
    with pytest.raises(CiError):
        server.trigger("ghost")


def test_build_numbers_increment(jenkins):
    sim, server = jenkins
    server.register_job("j", quick_runner(sim))
    builds = [server.trigger("j") for _ in range(3)]
    sim.run()
    assert [b.number for b in builds] == [1, 2, 3]


def test_executor_pool_limits_parallelism(jenkins):
    sim, server = jenkins  # 2 executors
    server.register_job("j", quick_runner(sim, duration=100.0))
    builds = [server.trigger("j") for _ in range(4)]
    sim.run(until=1.0)
    assert server.executors.in_use == 2
    assert server.executors.queue_length == 2
    sim.run()
    starts = sorted(b.started_at for b in builds)
    assert starts == [0.0, 0.0, 100.0, 100.0]


def test_failure_status_recorded(jenkins):
    sim, server = jenkins
    server.register_job("bad", quick_runner(sim, status=BuildStatus.FAILURE))
    build = server.trigger("bad")
    sim.run()
    assert build.status == BuildStatus.FAILURE


def test_non_status_return_becomes_failure(jenkins):
    sim, server = jenkins

    def broken(build):
        yield sim.timeout(1.0)
        return "oops"

    server.register_job("broken", broken)
    build = server.trigger("broken")
    sim.run()
    assert build.status == BuildStatus.FAILURE
    assert any("treating as FAILURE" in line for line in build.log)


def test_timeout_aborts_build(jenkins):
    sim, server = jenkins
    server.register_job("slow", quick_runner(sim, duration=10_000.0), timeout_s=100.0)
    build = server.trigger("slow")
    sim.run()
    assert build.status == BuildStatus.ABORTED
    assert build.duration_s == 100.0


def test_abort_running_build(jenkins):
    sim, server = jenkins
    server.register_job("j", quick_runner(sim, duration=1000.0))
    build = server.trigger("j")
    sim.call_in(50.0, server.abort, build)
    sim.run()
    assert build.status == BuildStatus.ABORTED
    assert build.finished_at == 50.0


def test_abort_queued_build_does_not_leak_executor(jenkins):
    sim, server = jenkins
    server.register_job("j", quick_runner(sim, duration=100.0))
    running = [server.trigger("j") for _ in range(2)]
    queued = server.trigger("j")
    sim.call_in(10.0, server.abort, queued)
    sim.run()
    assert queued.status == BuildStatus.ABORTED
    assert queued.started_at is None
    assert all(b.status == BuildStatus.SUCCESS for b in running)
    # pool healthy: a new build can use both executors
    more = [server.trigger("j") for _ in range(2)]
    sim.run()
    assert all(b.status == BuildStatus.SUCCESS for b in more)
    assert server.executors.in_use == 0


def test_abort_finished_build_raises(jenkins):
    sim, server = jenkins
    server.register_job("j", quick_runner(sim, duration=1.0))
    build = server.trigger("j")
    sim.run()
    with pytest.raises(CiError):
        server.abort(build)


def test_done_event_fires(jenkins):
    sim, server = jenkins
    server.register_job("j", quick_runner(sim))
    build = server.trigger("j")
    seen = []

    def waiter():
        b = yield build.done_event
        seen.append((sim.now, b.status))

    sim.process(waiter())
    sim.run()
    assert seen == [(60.0, BuildStatus.SUCCESS)]


def test_build_log_contains_lifecycle(jenkins):
    sim, server = jenkins
    server.register_job("j", quick_runner(sim))
    build = server.trigger("j")
    sim.run()
    text = "\n".join(build.log)
    assert "started on executor" in text
    assert "doing work" in text
    assert "finished: SUCCESS" in text


def test_last_build_with_parameters(jenkins):
    sim, server = jenkins
    job = server.register_job("j", quick_runner(sim))
    server.trigger("j", parameters={"cluster": "a"})
    server.trigger("j", parameters={"cluster": "b"})
    sim.run()
    assert job.last_build({"cluster": "a"}).parameters == {"cluster": "a"}
    assert job.last_build().parameters == {"cluster": "b"}
    assert job.last_build({"cluster": "zzz"}) is None


def test_wait_time_accounts_queueing(jenkins):
    sim, server = jenkins
    server.register_job("j", quick_runner(sim, duration=100.0))
    builds = [server.trigger("j") for _ in range(3)]
    sim.run()
    assert builds[2].wait_time_s == 100.0
