"""Tests for the REST-shaped API and periodic triggers."""

import pytest

from repro.ci import BuildStatus, JenkinsApi, JenkinsServer, PeriodicTrigger
from repro.util import CiError, HOUR, Simulator


@pytest.fixture()
def jenkins():
    sim = Simulator()
    server = JenkinsServer(sim, executors=4)

    def runner(build):
        yield sim.timeout(30.0)
        return (BuildStatus.FAILURE if build.parameters.get("cluster") == "bad"
                else BuildStatus.SUCCESS)

    server.register_job("check", runner, description="a check")
    return sim, server, JenkinsApi(server)


def test_build_info_includes_log(jenkins):
    sim, server, api = jenkins
    build = server.trigger("check")
    sim.run()
    doc = api.build_info("check", build.number)
    assert doc["result"] == "SUCCESS"
    assert any("finished" in line for line in doc["log"])


def test_build_info_unknown_number(jenkins):
    _, _, api = jenkins
    with pytest.raises(CiError):
        api.build_info("check", 99)


def test_builds_matching_filters_parameters(jenkins):
    sim, server, api = jenkins
    server.trigger("check", parameters={"cluster": "ok"})
    server.trigger("check", parameters={"cluster": "bad"})
    sim.run()
    bad = api.builds_matching("check", parameters={"cluster": "bad"})
    assert len(bad) == 1
    assert bad[0]["result"] == "FAILURE"


def test_builds_matching_since(jenkins):
    sim, server, api = jenkins
    server.trigger("check")
    sim.run(until=HOUR)
    server.trigger("check")
    sim.run(until=2 * HOUR)
    recent = api.builds_matching("check", since=HOUR)
    assert len(recent) == 1


def test_periodic_trigger_fires_on_schedule(jenkins):
    sim, server, _ = jenkins
    trigger = PeriodicTrigger(sim, server, "check", period_s=HOUR)
    trigger.start()
    sim.run(until=5.5 * HOUR)
    trigger.stop()
    assert trigger.fired == 6  # t=0,1h,...,5h
    assert len(server.job("check").builds) == 6


def test_periodic_trigger_initial_delay_and_params(jenkins):
    sim, server, _ = jenkins
    counter = {"n": 0}

    def params():
        counter["n"] += 1
        return {"round": str(counter["n"])}

    trigger = PeriodicTrigger(sim, server, "check", period_s=HOUR,
                              parameters_fn=params, initial_delay_s=600.0)
    trigger.start()
    sim.run(until=700.0)
    trigger.stop()
    builds = server.job("check").builds
    assert len(builds) == 1
    assert builds[0].queued_at == 600.0
    assert builds[0].parameters == {"round": "1"}
    sim.run()
