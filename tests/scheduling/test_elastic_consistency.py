"""The batched elastic tick leaves the scheduler's state consistent.

A tick under ``steal-agreement`` reclaims grown width, settles its steal
agreements against a ledger, re-places the queue once and grows into the
idle pool, all with the simulated clock frozen.  After every tick of a
few ``elastic-burst`` runs this checks, from scratch:

* the availability profile equals the step function rebuilt from the
  Gantt's job ledger (``oar_reference.profile_steps``);
* no node is held by two running jobs;
* each running job's width equals the popcount of its node mask, and the
  ledger holds exactly that mask for the job right now;
* the tick made at most one ``replan_now`` pass.
"""

import sys
from pathlib import Path

import pytest

from repro import run_scenario, scenarios
from repro.oar.server import OarServer
from repro.scheduling.elastic import CommonPoolStrategy, StealAgreementStrategy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "oar"))
from oar_reference import profile_steps  # noqa: E402

_MONTHS = 0.02


def _check_consistent(oar):
    gantt = oar.gantt
    busy = [iv for held in gantt._ledger.values() for iv in held]
    assert (list(gantt.profile._times), list(gantt.profile._masks)) \
        == profile_steps(busy, gantt.full_mask)
    now = oar.sim.now
    taken = 0
    for job in oar.running_jobs():
        mask = gantt.mask_for(job.assignment)
        assert mask & taken == 0, f"job {job.job_id} shares a node"
        taken |= mask
        assert job.width == mask.bit_count(), job.job_id
        if now < job.started_at + job.walltime_s:
            held = 0
            for start, end, ivmask in gantt._ledger.get(job.job_id, ()):
                if start <= now < end:
                    held |= ivmask
            assert held == mask, f"job {job.job_id}: ledger {held:#x}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_steal_ticks_keep_profile_ledger_and_allocations_consistent(
        monkeypatch, seed):
    tick = CommonPoolStrategy.elastic_tick
    replan = OarServer.replan_now
    stats = {"ticks": 0, "replans": 0, "max_replans": 0}

    def counting_replan(self, *args, **kwargs):
        stats["replans"] += 1
        return replan(self, *args, **kwargs)

    def checked_tick(self, oar):
        before = stats["replans"]
        tick(self, oar)
        stats["ticks"] += 1
        stats["max_replans"] = max(stats["max_replans"],
                                   stats["replans"] - before)
        _check_consistent(oar)

    monkeypatch.setattr(StealAgreementStrategy, "elastic_tick", checked_tick)
    monkeypatch.setattr(OarServer, "replan_now", counting_replan)
    spec = scenarios.get("elastic-burst").derive(strategy="steal-agreement")
    _, report = run_scenario(spec, seed=seed, months=_MONTHS)
    assert stats["ticks"] > 100
    assert stats["replans"] > 0 and stats["max_replans"] == 1
    assert report.shrink_events > 0 and report.grow_events > 0
