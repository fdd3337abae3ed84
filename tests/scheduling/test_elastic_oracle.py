"""The one-pass elastic tick makes exactly the reference's resize calls.

``StealAgreementStrategy._negotiate`` keeps a per-tick donor table and
``CommonPoolStrategy._expand`` keeps one candidate mask per job; the
per-queued-job and per-round loops they replaced live in
``elastic_reference``.  Both run ``elastic-burst`` here while every
``OarServer.grow``/``shrink``/``replan_now`` call is recorded with its
arguments: the two call sequences must be equal.
"""

import pytest

from repro import run_scenario, scenarios
from repro.oar.server import OarServer
from repro.scheduling.elastic import CommonPoolStrategy, StealAgreementStrategy

import elastic_reference

_MONTHS = 0.02


def _arg(value):
    return getattr(value, "job_id", value)


def _recorded_calls(monkeypatch, strategy, seed):
    calls = []

    def recording(name):
        method = getattr(OarServer, name)

        def wrapper(self, *args, **kwargs):
            calls.append((self.sim.now, name, tuple(map(_arg, args)),
                          tuple(sorted((k, _arg(v))
                                       for k, v in kwargs.items()))))
            return method(self, *args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for name in ("grow", "shrink", "replan_now"):
            patch.setattr(OarServer, name, recording(name))
        spec = scenarios.get("elastic-burst").derive(strategy=strategy)
        run_scenario(spec, seed=seed, months=_MONTHS)
    return calls


def _use_reference(monkeypatch):
    monkeypatch.setattr(CommonPoolStrategy, "_expand", elastic_reference.expand)
    monkeypatch.setattr(StealAgreementStrategy, "_negotiate",
                        elastic_reference.negotiate)


def _agreements_per_tick(calls):
    """Steal agreements (prefer-shrinks closed by a replan) per tick."""
    per_tick = {}
    steal = False
    for now, name, _, kwargs in calls:
        if name == "shrink" and dict(kwargs).get("prefer"):
            steal = True
        elif name == "replan_now" and steal:
            per_tick[now] = per_tick.get(now, 0) + 1
            steal = False
    return per_tick


@pytest.mark.parametrize("strategy", ["steal-agreement", "common-pool"])
@pytest.mark.parametrize("seed", [0, 1])
def test_elastic_tick_matches_reference_calls(monkeypatch, strategy, seed):
    production = _recorded_calls(monkeypatch, strategy, seed)
    with monkeypatch.context() as patch:
        _use_reference(patch)
        reference = _recorded_calls(patch, strategy, seed)
    assert production == reference
    names = {name for _, name, _, _ in production}
    assert {"grow", "shrink", "replan_now"} <= names
    if strategy == "steal-agreement":
        # Several agreements inside one tick: the donor table must be
        # rebuilt between them for the sequences to agree.
        assert max(_agreements_per_tick(production).values()) >= 2
