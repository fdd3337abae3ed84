"""Tests for the malleable policy family and the A/B scoreboard plumbing.

The mechanism layer (grow/shrink/evict on the OAR server) is covered in
``tests/oar/test_grow_shrink.py``; here we drive whole campaigns through
the registered strategies and check the policy-level contracts: the rigid
baseline is byte-identical to ``default``, the malleable policies actually
resize jobs and improve turnaround at identical contention, and everything
stays deterministic.
"""

import hashlib
import json

import pytest

from repro import run_scenario, scenarios
from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import JobState, OarDatabase, OarServer
from repro.scheduling import get_strategy, strategy_names
from repro.scheduling.policies import SchedulerPolicy
from repro.scheduling.elastic import (
    CommonPoolStrategy,
    EasyBackfillStrategy,
    StealAgreementStrategy,
)
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import HOUR, RngStreams, Simulator


def report_hash(report) -> str:
    doc = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


# -- registry ------------------------------------------------------------------


def test_strategy_names_are_sorted():
    names = strategy_names()
    assert names == sorted(names)
    assert {"default", "easy-backfill", "common-pool",
            "steal-agreement"} <= set(names)


def test_elastic_strategies_resolve_by_name():
    assert get_strategy("easy-backfill") is EasyBackfillStrategy
    assert get_strategy("common-pool") is CommonPoolStrategy
    assert get_strategy("steal-agreement") is StealAgreementStrategy


def test_unknown_strategy_lists_names_sorted():
    with pytest.raises(KeyError) as err:
        get_strategy("no-such-policy")
    msg = str(err.value)
    listed = [n for n in strategy_names() if n in msg]
    assert listed == sorted(listed) and len(listed) >= 4


def test_spec_strategy_is_resolved_at_build_time():
    """An unknown name in the spec surfaces as the registry's KeyError on
    build, not at spec-construction time (presets must stay importable)."""
    spec = scenarios.get("tiny-smoke").derive(strategy="not-registered")
    with pytest.raises(KeyError, match="not-registered"):
        run_scenario(spec, seed=0, months=0.01)


# -- policy behaviour ----------------------------------------------------------


def test_easy_backfill_matches_default_byte_for_byte():
    """The rigid baseline ignores width ranges entirely: same placements,
    same report — only the strategy label differs."""
    spec = scenarios.get("elastic-burst")
    _, default = run_scenario(spec.derive(strategy="default"),
                              seed=0, months=0.05)
    _, easy = run_scenario(spec.derive(strategy="easy-backfill"),
                           seed=0, months=0.05)
    d_doc, e_doc = default.to_dict(), easy.to_dict()
    assert d_doc.pop("strategy") == "default"
    assert e_doc.pop("strategy") == "easy-backfill"
    assert d_doc == e_doc
    assert easy.grow_events == 0 and easy.shrink_events == 0


def test_common_pool_expands_and_reclaims():
    spec = scenarios.get("elastic-burst")
    _, report = run_scenario(spec, seed=0, months=0.05)  # preset default
    assert report.strategy == "common-pool"
    assert report.grow_events > 0
    assert report.shrink_events > 0


def test_steal_round_settles_later_jobs_against_earlier_agreements():
    """Two queued grisou jobs negotiate with one donor holding 4 grisou
    nodes.  The first agreement takes 2 of them and claims them; the
    second job (deficit 3) then sees the donor's 2 remaining grisou
    nodes, not the 4 it held at the start of the round, so it gets
    nothing — and the donor never cedes a node the job cannot use."""
    specs = [s for s in CLUSTER_SPECS if s.name in ("grisou", "grimoire")]
    testbed = build_grid5000(specs)
    sim = Simulator()
    park = MachinePark.from_testbed(sim, testbed, RngStreams(seed=5))
    oar = OarServer(sim, OarDatabase(ReferenceApi(testbed), ServiceHealth()),
                    park)
    oar.submit("cluster='grisou'/nodes=44,walltime=10", auto_duration=9 * HOUR)
    oar.submit("cluster='grimoire'/nodes=4,walltime=10",
               auto_duration=9 * HOUR)
    donor = oar.submit("cluster='grimoire' or cluster='grisou'/"
                       "nodes=2..8..8,walltime=10", auto_duration=HOUR)
    sim.run(until=1.0)
    assert donor.state == JobState.RUNNING
    grisou = oar.matching_mask(oar.submit(
        "cluster='grisou'/nodes=2,walltime=1").request.expr)
    oar.submit("cluster='grisou'/nodes=3,walltime=1")
    assert (oar.gantt.mask_for(donor.assignment) & grisou).bit_count() == 4
    queued = oar.queued_jobs(StealAgreementStrategy.queue_slack_s)
    assert [j.request.count for j in queued] == [2, 3]

    freed = StealAgreementStrategy(SchedulerPolicy())._negotiate(oar, queued)
    assert freed.bit_count() == 2 and freed & ~grisou == 0
    assert donor.width == 6 and donor.shrink_count == 1
    assert CommonPoolStrategy(SchedulerPolicy())._negotiate(oar, queued) == 0


def test_malleable_policies_beat_rigid_turnaround():
    """The PR's headline claim at identical contention: same trace, same
    seed, same testbed — malleability alone improves mean turnaround."""
    spec = scenarios.get("elastic-burst")
    reports = {}
    for strat in ("easy-backfill", "common-pool", "steal-agreement"):
        _, reports[strat] = run_scenario(spec.derive(strategy=strat),
                                         seed=0, months=0.05)
    rigid = reports["easy-backfill"].turnaround_mean_s
    assert reports["common-pool"].turnaround_mean_s < rigid
    assert reports["steal-agreement"].turnaround_mean_s < rigid
    # Everyone served at least the rigid baseline's completed jobs.
    for rep in reports.values():
        assert rep.jobs_completed >= reports["easy-backfill"].jobs_completed


def test_elastic_campaign_is_deterministic():
    spec = scenarios.get("elastic-burst").derive(strategy="steal-agreement")
    _, first = run_scenario(spec, seed=3, months=0.05)
    _, second = run_scenario(spec, seed=3, months=0.05)
    assert report_hash(first) == report_hash(second)


def test_strategy_rides_spec_serialization():
    spec = scenarios.get("elastic-burst")
    assert spec.strategy == "common-pool"
    back = scenarios.ScenarioSpec.from_json(spec.to_json())
    assert back == spec
    assert back.strategy == "common-pool"
    # Different strategies are different worlds: distinct content hashes.
    assert spec.derive(strategy="steal-agreement").content_hash() \
        != spec.content_hash()
