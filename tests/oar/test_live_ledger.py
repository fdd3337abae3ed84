"""The Gantt holds only live jobs, and its profile equals its ledger.

A job leaves the Gantt whole when it ends, and a node a running job gives
up leaves whole too, so the ledger holds exactly the scheduled and the
running jobs.  At every batched replan of a few campaigns (a rigid one,
both malleable policies and the full testbed) this checks, from scratch:

* the ledger's keys are the ids of the scheduled plus the running jobs;
* the availability profile equals the step function rebuilt from the
  ledger (``oar_reference.profile_steps``).
"""

import pytest

from repro import run_scenario, scenarios
from repro.oar.server import OarServer

from oar_reference import profile_steps


def _check_live(oar):
    gantt = oar.gantt
    live = [j.job_id for j in oar._scheduled] + [j.job_id for j in oar._running]
    assert len(set(live)) == len(live)
    assert set(gantt._ledger) == set(live)
    busy = [iv for held in gantt._ledger.values() for iv in held]
    assert (list(gantt.profile._times), list(gantt.profile._masks)) \
        == profile_steps(busy, gantt.full_mask)


@pytest.mark.parametrize("name, strategy, months", [
    ("tiny-smoke", "default", 0.35),
    ("elastic-burst", "common-pool", 0.02),
    ("elastic-burst", "steal-agreement", 0.02),
    ("paper-baseline", "default", 0.015),
])
def test_ledger_holds_only_live_jobs_at_every_replan(monkeypatch, name,
                                                     strategy, months):
    replan = OarServer._do_replan
    calls = []

    def checked_replan(self):
        _check_live(self)
        replan(self)
        _check_live(self)
        calls.append(self.sim.now)

    monkeypatch.setattr(OarServer, "_do_replan", checked_replan)
    spec = scenarios.get(name).derive(strategy=strategy)
    run_scenario(spec, seed=0, months=months)
    assert len(calls) > 10
