"""Every job producer inside the simulator hands OAR a ``JobRequest``.

The workload generator, trace replay and the test families build their
requests as data; the ``oarsub -l`` parser is for text from outside the
simulator only.  Each request must still be what its text form parses
to, and carry a whole number of seconds of walltime.
"""

import pytest

from repro import run_scenario, scenarios
from repro.oar import parse_request
from repro.oar.request import _Parser

_RUNS = [
    ("tiny-smoke", "default", False, 0.05),
    ("tiny-smoke", "default", True, 0.05),
    ("elastic-burst", "steal-agreement", False, 0.01),
]


def _refuse_to_parse(self, text):
    raise AssertionError(f"the simulator parsed request text: {text!r}")


@pytest.mark.parametrize("name, strategy, pernode, months", _RUNS)
def test_simulator_builds_canonical_requests_without_parsing(
        monkeypatch, name, strategy, pernode, months):
    spec = scenarios.get(name).derive(strategy=strategy, pernode=pernode)
    with monkeypatch.context() as patch:
        patch.setattr(_Parser, "__init__", _refuse_to_parse)
        fw, _ = run_scenario(spec, seed=0, months=months)
    jobs = list(fw.oar.jobs.values())
    users = {job.user for job in jobs}
    assert "testframework" in users and len(users) > 1
    if pernode:
        assert any(str(job.request).startswith("network_address=") for job in jobs)
    if name == "elastic-burst":
        assert any(job.request.malleable for job in jobs)
    for job in jobs:
        request = job.request
        assert parse_request(str(request)) == request
        assert request.walltime_s == int(request.walltime_s) > 0
