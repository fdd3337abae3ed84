"""RESM machinery: registry semantics and the wire-level attach/report
contract (scripted transport, no sockets — the end-to-end resume path is
covered by tests/service/test_chaos_convergence.py)."""

import hashlib
import json
import threading
import time

import pytest

from repro.service import RunRegistry, Session, resume
from test_session import HELO, ScriptTransport

# -- registry semantics -------------------------------------------------------


def test_tokens_are_unique_and_resumable_once_detached():
    reg = RunRegistry()
    a = reg.create("tiny-smoke", 0, 0.05)
    b = reg.create("tiny-smoke", 1, 0.05)
    assert a.token != b.token
    reg.detach(a, "disconnected")
    resumed = reg.attach(a.token)
    assert resumed is a and a.status == "running" and a.attached


def test_attach_guards(monkeypatch):
    monkeypatch.setattr(resume, "ATTACH_WAIT_S", 0.01)
    reg = RunRegistry()
    rec = reg.create("tiny-smoke", 0, None)
    with pytest.raises(KeyError):
        reg.attach("run-999")
    with pytest.raises(ValueError):  # still attached to its session
        reg.attach(rec.token)
    reg.detach(rec, "done")
    with pytest.raises(ValueError):  # finished runs never resume
        reg.attach(rec.token)


def test_attach_waits_for_the_old_session_to_detach():
    # The reconnecting client can beat the old session's reaper: attach
    # must wait for the detach instead of refusing the run.
    reg = RunRegistry()
    rec = reg.create("tiny-smoke", 0, None)
    reaper = threading.Timer(0.2, reg.detach, (rec, "disconnected"))
    started = time.monotonic()
    reaper.start()
    try:
        assert reg.attach(rec.token) is rec
    finally:
        reaper.join(timeout=5.0)
    assert not reaper.is_alive()
    assert rec.attached and rec.status == "running"
    assert time.monotonic() - started < resume.ATTACH_WAIT_S


def test_eviction_spares_attached_runs():
    reg = RunRegistry(max_records=2)
    live = reg.create("tiny-smoke", 0, None)  # stays attached
    for seed in (1, 2, 3):
        rec = reg.create("tiny-smoke", seed, None)
        reg.detach(rec, "done")
    assert len(reg) == 2
    assert reg.get(live.token) is live, "an attached run must survive"


# -- wire-level contract ------------------------------------------------------


def _serve(lines, runs):
    transport = ScriptTransport(lines)
    Session(transport, runs=runs).serve()
    return transport.sent


def test_resm_unknown_token_is_err_run():
    sent = _serve([HELO, "RESM run-404", "QUIT"], RunRegistry())
    assert any(line.startswith("ERR run") for line in sent)
    assert sent[-1] == "OK bye"  # the session survived


def test_resm_attached_and_finished_runs_are_state_errors(monkeypatch):
    monkeypatch.setattr(resume, "ATTACH_WAIT_S", 0.01)
    reg = RunRegistry()
    attached = reg.create("tiny-smoke", 0, 0.05)
    done = reg.create("tiny-smoke", 1, 0.05)
    reg.detach(done, "done")
    sent = _serve([HELO, f"RESM {attached.token}", f"RESM {done.token}",
                   "QUIT"], reg)
    errors = [line for line in sent if line.startswith("ERR ")]
    assert len(errors) == 2
    assert all(err.startswith("ERR state") for err in errors)


class _FakeReport:
    """Stand-in with the one method _do_rprt needs."""

    def to_dict(self):
        return {"metric": 1.0}


def test_rprt_token_recovers_a_finished_report():
    reg = RunRegistry()
    rec = reg.create("tiny-smoke", 0, 0.05)
    rec.report = _FakeReport()
    reg.detach(rec, "done")
    sent = _serve([HELO, f"RPRT {rec.token}", "QUIT"], reg)
    body = json.dumps({"metric": 1.0}, sort_keys=True, separators=(",", ":"))
    sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
    assert f"RPRT {sha}" in sent
    assert body in sent


def test_rprt_token_errors():
    reg = RunRegistry()
    rec = reg.create("tiny-smoke", 0, 0.05)  # running: no report yet
    sent = _serve([HELO, "RPRT run-404", f"RPRT {rec.token}", "QUIT"], reg)
    errors = [line for line in sent if line.startswith("ERR ")]
    assert errors[0].startswith("ERR run")
    assert errors[1].startswith("ERR state")


def test_run_issues_token_before_first_tick():
    """The OK to RUN carries the resume token up front, so the client
    holds it even if the very next exchange dies."""
    reg = RunRegistry()
    transport = ScriptTransport([HELO, "RUN tiny-smoke 0 0.01"])
    Session(transport, runs=reg).serve()  # script ends mid-run: disconnect
    ok_lines = [line for line in transport.sent if line.startswith("OK run ")]
    assert len(ok_lines) == 1
    token = ok_lines[0].split()[2]
    record = reg.get(token)
    assert record is not None
    assert record.status == "disconnected", "mid-run death stays resumable"
