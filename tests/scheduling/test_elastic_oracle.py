"""The one-pass elastic tick makes exactly the reference's resize calls.

``StealAgreementStrategy._negotiate`` keeps a per-tick donor table,
updated in place by each agreement, and ``CommonPoolStrategy._expand``
keeps one candidate mask per job; the per-queued-job and per-round loops
they replaced live in ``elastic_reference``.  Both run ``elastic-burst``
here while every ``OarServer.grow``/``shrink``/``replan_now`` call is
recorded with its arguments: the two call sequences must be equal, and
no tick may replan more than once.
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
    """Steal agreements per tick: the prefer-shrinks of one queued job
    share its ``prefer`` mask, so a tick's distinct masks count its
    agreements (two queued jobs with the same usable mask count once)."""
    per_tick = {}
    for now, name, _, kwargs in calls:
        prefer = dict(kwargs).get("prefer")
        if name == "shrink" and prefer:
            per_tick.setdefault(now, set()).add(prefer)
    return {now: len(masks) for now, masks in per_tick.items()}


def _replans_per_tick(calls):
    per_tick = {}
    for now, name, _, _ in calls:
        if name == "replan_now":
            per_tick[now] = per_tick.get(now, 0) + 1
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
    # One replan pass per tick, whatever the tick freed.
    assert max(_replans_per_tick(production).values()) == 1
    if strategy == "steal-agreement":
        # Several agreements inside one tick: the donor table and the
        # ledger must carry the earlier ones for the sequences to agree.
        assert max(_agreements_per_tick(production).values()) >= 2
