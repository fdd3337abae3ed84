"""A same-spot re-placement's kept start timer moves no start or end.

``OarServer._reserve`` keeps the pending ``_try_start`` timer when a
replan puts a job back on the start and nodes it already held, so that
timer keeps its older kernel sequence number.  The reference below arms a
fresh timer on every placement, as every placement did before.  Both run
each golden row and ``elastic-burst`` under both malleable policies,
recording ``(time, job id)`` from ``on_job_start`` and
``on_job_complete``: the two sequences must be equal, so no two jobs
starting at one instant trade places.
"""

import pytest

from repro import run_scenario, scenarios
from repro.oar.jobs import JobState
from repro.oar.server import OarServer

from test_determinism_guard import GOLDEN_REPORT_HASHES

_ELASTIC = [("elastic-burst", strategy, False, seed, 0.02)
            for strategy in ("common-pool", "steal-agreement")
            for seed in (0, 1, 2)]
_CASES = sorted(set(GOLDEN_REPORT_HASHES) | set(_ELASTIC))


def _renewing_reserve(self, job, start, mask):
    """Every placement builds its uids and arms a new start timer (the
    generation bump turns the previous one stale)."""
    gantt = self.gantt
    gantt.reserve(mask, start, start + job.walltime_s, job.job_id)
    job.state = JobState.SCHEDULED
    self._scheduled.append(job)
    job.generation += 1
    job.assignment = tuple(gantt.uids_from_mask(mask))
    job.reserved_mask = mask
    job.scheduled_start = start
    self.sim.call_at(start, self._try_start, job, job.generation)


def _sequences(name, strategy, pernode, seed, months):
    starts: list[tuple[float, int]] = []
    ends: list[tuple[float, int]] = []

    def on_built(fw):
        fw.oar.on_job_start.append(
            lambda job: starts.append((job.started_at, job.job_id)))
        fw.oar.on_job_complete.append(
            lambda job: ends.append((job.finished_at, job.job_id)))

    spec = scenarios.get(name).derive(strategy=strategy, pernode=pernode)
    run_scenario(spec, seed=seed, months=months, on_built=on_built)
    return starts, ends


@pytest.mark.parametrize("case", _CASES, ids=lambda c: "-".join(map(str, c)))
def test_kept_start_timers_match_renewed_ones(monkeypatch, case):
    starts, ends = _sequences(*case)
    with monkeypatch.context() as patch:
        patch.setattr(OarServer, "_reserve", _renewing_reserve)
        ref_starts, ref_ends = _sequences(*case)
    assert starts, "the run started no job"
    assert starts == ref_starts
    assert ends == ref_ends
