"""S1 — wire-protocol overhead: remote vs in-process scheduling.

Runs the ``bursty-replay`` scenario twice at the same seed — once
in-process, once through the socket service driven by the bundled
reference client — and measures the workload throughput of each path
(submitted jobs per wall-clock second).  The remote path pays one
synchronous protocol round per scheduler tick with due cells, so the
ratio is the protocol's end-to-end overhead.  Each path's wall is the
median of three runs after an untimed warm-up, as in ``bench_m1_elastic``.

Also asserts the determinism contract on a workload-heavy scenario:
every remote report is byte-identical (same canonical JSON, same sha256)
to the in-process one.  Numbers land in
``benchmarks/results/BENCH_s1_service.json``.
"""

import hashlib
import json
import statistics
import time

from repro import run_scenario, scenarios
from repro.service import ReferenceClient, SimulatorService

from conftest import paper_row, print_table
from perf import write_results

_MONTHS = 0.12  # the horizon the bundled trace was recorded over
_SCENARIO = "bursty-replay"
_TIMED_RUNS = 3  # per path, after one untimed warm-up; the median is reported


def _report_hash(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _local_run(spec):
    t0 = time.perf_counter()
    fw, report = run_scenario(spec, seed=0, months=_MONTHS)
    wall = time.perf_counter() - t0
    return fw.workload.submitted, _report_hash(report.to_dict()), wall


def _remote_run(client):
    t0 = time.perf_counter()
    result = client.run_scenario(_SCENARIO, seed=0, months=_MONTHS)
    return result, time.perf_counter() - t0


def bench_s1_service(benchmark):
    spec = scenarios.get(_SCENARIO)

    # A cold first run (lazy imports, first world build, first connection)
    # swings its wall: each path gets an untimed warm-up, and its figure is
    # the median of the identical runs after it.
    benchmark.pedantic(_local_run, args=(spec,), rounds=1, iterations=1)
    local_runs = [_local_run(spec) for _ in range(_TIMED_RUNS)]
    jobs, local_hash, _ = local_runs[0]
    assert {(n, h) for n, h, _ in local_runs} == {(jobs, local_hash)}, \
        "in-process runs diverged"
    t_local = statistics.median(w for _, _, w in local_runs)

    svc = SimulatorService(port=0).start()
    try:
        host, port = svc.address
        with ReferenceClient(host, port) as client:
            warm_up, _ = _remote_run(client)
            remote_runs = [_remote_run(client) for _ in range(_TIMED_RUNS)]
    finally:
        svc.stop()
    remote_hashes = [warm_up["sha256"]] + [r["sha256"] for r, _ in remote_runs]
    result = remote_runs[0][0]
    t_remote = statistics.median(w for _, w in remote_runs)

    local_jps = jobs / max(t_local, 1e-9)
    remote_jps = jobs / max(t_remote, 1e-9)
    overhead = t_remote / max(t_local, 1e-9)

    rows = [
        paper_row("workload jobs", "-", jobs),
        paper_row("in-process (jobs/s)", "-", f"{local_jps:.0f}"),
        paper_row("remote (jobs/s)", "-", f"{remote_jps:.0f}"),
        paper_row("protocol rounds (ticks)", "-", result["ticks"]),
        paper_row("remote/in-process wall", "-", f"{overhead:.2f}x"),
        paper_row("remote reports", "byte-identical",
                  "yes" if set(remote_hashes) == {local_hash} else "NO"),
    ]
    print_table("S1: simulator-as-a-service overhead", rows)

    write_results("s1_service", {
        "workload_jobs": jobs,
        "inprocess_wall_s": round(t_local, 3),
        "inprocess_jobs_per_s": round(local_jps, 1),
        "remote_wall_s": round(t_remote, 3),
        "remote_jobs_per_s": round(remote_jps, 1),
        "remote_ticks": result["ticks"],
        "remote_overhead_x": round(overhead, 2),
    })

    # the acceptance criterion, on the heavier replay scenario
    assert remote_hashes == [local_hash] * len(remote_hashes)
    # localhost protocol rounds are cheap: the remote path must stay in
    # the same order of magnitude (catches per-decision quadratic work
    # or an accidental unpipelined chat inside the tick loop)
    assert remote_jps > local_jps / 10
