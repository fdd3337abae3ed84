"""End-to-end service tests: a real socket, the bundled reference client.

The headline assertion is the PR's acceptance criterion: a client that
speaks only the wire protocol completes a ``tiny-smoke`` campaign whose
report is byte-identical (same sha256) to the in-process
:func:`~repro.run_scenario` result at the same seed.
"""

import hashlib
import json

import pytest

from repro import run_scenario, scenarios
from repro.service import ClientError, ReferenceClient, SimulatorService

#: Short horizon keeps the full remote round-trip loop under a second.
MONTHS = 0.1


@pytest.fixture()
def service(tmp_path):
    svc = SimulatorService(port=0, store=str(tmp_path / "store.jsonl"))
    svc.start()
    yield svc
    svc.stop()


def report_hash(report) -> str:
    doc = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def inprocess_hash(name: str, seed: int, months: float) -> str:
    _, report = run_scenario(scenarios.get(name), seed=seed, months=months)
    return report_hash(report)


def test_remote_run_is_byte_identical_to_inprocess(service):
    host, port = service.address
    with ReferenceClient(host, port) as client:
        result = client.run_scenario("tiny-smoke", seed=0, months=MONTHS)
    assert result["ticks"] > 0
    assert result["sha256"] == inprocess_hash("tiny-smoke", 0, MONTHS)


def test_remote_determinism_holds_across_seeds(service):
    host, port = service.address
    for seed in (3, 7):
        with ReferenceClient(host, port) as client:
            result = client.run_scenario("tiny-smoke", seed=seed,
                                         months=MONTHS)
        assert result["sha256"] == inprocess_hash("tiny-smoke", seed, MONTHS)


def test_remote_malleable_run_keeps_its_elastic_round(service):
    """The wire bridge wraps the spec's strategy: a remote ``elastic-burst``
    still grows and shrinks its malleable jobs, byte for byte as in
    process."""
    _, report = run_scenario(scenarios.get("elastic-burst"), seed=0,
                             months=0.01)
    assert report.grow_events > 0 and report.shrink_events > 0
    host, port = service.address
    with ReferenceClient(host, port) as client:
        result = client.run_scenario("elastic-burst", seed=0, months=0.01)
    assert result["sha256"] == report_hash(report)


def test_campaign_submission_dedupes_across_connections(service):
    host, port = service.address
    with ReferenceClient(host, port) as client:
        first = client.submit_campaign(["tiny-smoke"], seeds=[0, 1],
                                       months=0.05)
    assert first == [("tiny-smoke", 0, "ok"), ("tiny-smoke", 1, "ok")]
    # a different connection resubmits a superset: old cells come cached
    with ReferenceClient(host, port) as client:
        second = client.submit_campaign(["tiny-smoke"], seeds=[0, 1, 2],
                                        months=0.05)
    assert second == [("tiny-smoke", 0, "cached"), ("tiny-smoke", 1, "cached"),
                      ("tiny-smoke", 2, "ok")]


def test_store_survives_service_restart(tmp_path):
    path = str(tmp_path / "store.jsonl")
    with SimulatorService(port=0, store=path) as svc:
        with ReferenceClient(*svc.address) as client:
            client.submit_campaign(["tiny-smoke"], seeds=[0], months=0.05)
    with SimulatorService(port=0, store=path) as svc:
        with ReferenceClient(*svc.address) as client:
            cells = client.submit_campaign(["tiny-smoke"], seeds=[0],
                                           months=0.05)
    assert cells == [("tiny-smoke", 0, "cached")]


def test_protocol_error_does_not_take_down_the_run_loop(service):
    host, port = service.address
    with ReferenceClient(host, port) as client:
        # provoke an ERR mid-session, then verify a RUN still works
        client._send("GETS", "servers")
        msg = client._recv()
        assert msg.verb == "ERR" and msg.args[0] == "state"
        result = client.run_scenario("tiny-smoke", seed=0, months=0.05)
    assert result["sha256"] == inprocess_hash("tiny-smoke", 0, 0.05)


def test_client_reports_server_err_as_exception(service):
    host, port = service.address
    with ReferenceClient(host, port) as client:
        with pytest.raises(ClientError):
            client.run_scenario("no-such-preset", seed=0, months=0.05)
