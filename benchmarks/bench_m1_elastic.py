"""M1 — malleable vs rigid scheduling: the elastic A/B headline.

Runs the ``elastic-burst`` preset (the bursty trace replay widened to
0.5x..2x elastic ranges) under the rigid ``easy-backfill`` baseline and
the two malleable policies at identical contention — same trace, same
seed, same testbed — and asserts the headline claim: malleability alone
improves mean user-job turnaround.  Also measures scheduling throughput
(completed user jobs per wall-clock second) for the perf gate; the rigid
figure is the median of three runs after an untimed warm-up.
Numbers land in ``benchmarks/results/BENCH_m1_elastic.json``.
"""

import json
import statistics
import time

from repro import run_scenario, scenarios

from conftest import paper_row, print_table
from perf import write_results

_MONTHS = 0.12  # the horizon the bundled trace was recorded over
_STRATEGIES = ("easy-backfill", "common-pool", "steal-agreement")
_RIGID_TIMED_RUNS = 3  # after one untimed warm-up; the median is reported


def _timed_run(spec, strategy, seed=0):
    t0 = time.perf_counter()
    _, report = run_scenario(spec.derive(strategy=strategy),
                             seed=seed, months=_MONTHS)
    return report, time.perf_counter() - t0


def bench_m1_elastic(benchmark):
    spec = scenarios.get("elastic-burst")

    reports, walls = {}, {}
    # The rigid run is short, so a cold first run (lazy imports, first
    # world build) swings its wall: the warm-up run is not counted, the
    # rigid figure is the median of the identical runs after it.
    benchmark.pedantic(_timed_run, args=(spec, "easy-backfill"),
                       rounds=1, iterations=1)
    rigid_runs = [_timed_run(spec, "easy-backfill")
                  for _ in range(_RIGID_TIMED_RUNS)]
    assert len({json.dumps(rep.to_dict(), sort_keys=True)
                for rep, _ in rigid_runs}) == 1, "rigid runs diverged"
    reports["easy-backfill"] = rigid_runs[0][0]
    walls["easy-backfill"] = statistics.median(w for _, w in rigid_runs)
    for strategy in _STRATEGIES[1:]:
        reports[strategy], walls[strategy] = _timed_run(spec, strategy)

    rigid = reports["easy-backfill"]
    rows = []
    for strategy in _STRATEGIES:
        rep = reports[strategy]
        speedup = rigid.turnaround_mean_s / rep.turnaround_mean_s
        rows.append(paper_row(
            f"{strategy}: mean turnaround (s)", "-",
            f"{rep.turnaround_mean_s:.0f} ({speedup:.2f}x rigid)"))
    rows.append(paper_row(
        "jobs completed (rigid/pool/steal)", "-",
        "/".join(str(reports[s].jobs_completed) for s in _STRATEGIES)))
    rows.append(paper_row(
        "resizes (grow+shrink, pool/steal)", "-",
        "/".join(str(reports[s].grow_events + reports[s].shrink_events)
                 for s in _STRATEGIES[1:])))
    print_table("M1: malleable vs rigid scheduling", rows)

    rigid_jps = rigid.jobs_completed / max(walls["easy-backfill"], 1e-9)
    elastic_jps = (reports["steal-agreement"].jobs_completed
                   / max(walls["steal-agreement"], 1e-9))
    metrics = {
        "rigid_jobs_per_s": round(rigid_jps, 1),
        "elastic_jobs_per_s": round(elastic_jps, 1),
    }
    for strategy in _STRATEGIES:
        rep = reports[strategy]
        key = strategy.replace("-", "_")
        metrics[f"{key}_turnaround_mean_s"] = round(rep.turnaround_mean_s, 1)
        metrics[f"{key}_jobs_completed"] = rep.jobs_completed
        metrics[f"{key}_node_utilization"] = round(rep.node_utilization, 4)
    write_results("m1_elastic", metrics)

    # the headline: at equal contention, malleability improves turnaround
    # and never serves fewer jobs than the rigid baseline
    assert rigid.grow_events == 0 and rigid.shrink_events == 0
    for strategy in _STRATEGIES[1:]:
        rep = reports[strategy]
        assert rep.grow_events > 0 and rep.shrink_events > 0
        assert rep.turnaround_mean_s < rigid.turnaround_mean_s
        assert rep.jobs_completed >= rigid.jobs_completed
