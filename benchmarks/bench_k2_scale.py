"""K2 — scheduling-core throughput at production scale.

ROADMAP item 4's blocker: after the PR-5 constant-factor wins, the
remaining wall-clock at scale was algorithmic — ``Gantt.earliest_start``
linearly scanned per-node skylines and every completion re-planned the
whole queue.  The PR-9 availability profile turned both into indexed
queries; this bench is the proof layer.  It generates one deterministic
contended trace on a big synthetic park and replays it through the
scheduler twice:

* **full trace** — the throughput figure (``profile_jobs_per_s``);
* **prefix** — the first 2000 jobs, whose placement sha256 (the same
  protocol as ``tests/core/test_determinism_guard.py``) is pinned at the
  default sizes.  The pin is the value the retired linear scheduler
  produced on the same prefix, so the profile still places it
  byte-identically.

Scale is env-tunable; CI runs the smoke size, the full paper-scale run
(10^6 jobs on a 10k-node park) reruns with::

    REPRO_K2_JOBS=1000000 REPRO_K2_NODES=10000 \\
        python -m pytest benchmarks/bench_k2_scale.py -q -s

Numbers land in ``benchmarks/results/BENCH_k2_scale.json``; the CI
perf-smoke job compares a fresh run against the committed baseline via
``benchmarks/perf.py`` (30 % tolerance).
"""

import hashlib
import os
import time

from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import OarDatabase, OarServer
from repro.testbed import SITE_NAMES, ClusterSpec, ReferenceApi, build_grid5000
from repro.util import RngStreams, Simulator

from conftest import paper_row, print_table
from perf import write_results

#: Smoke-size defaults (a few seconds per variant on a laptop); the
#: acceptance-scale run sets REPRO_K2_JOBS=1000000 REPRO_K2_NODES=10000.
_JOBS = int(os.environ.get("REPRO_K2_JOBS", "20000"))
_NODES = int(os.environ.get("REPRO_K2_NODES", "2000"))
#: Trace prefix whose placement hash is pinned.
_PREFIX_JOBS = min(2000, _JOBS)
#: Placement sha256 of the prefix at the default sizes; the retired
#: linear scheduler and the profile scheduler both produced it.
_PINNED_PREFIX_HASH = \
    "77ca795c3c91d8c7cdd50d649c3f154a8a5c37576cbb2379b697001f1ebe763e"
_DEFAULT_SIZES = (_JOBS, _NODES) == (20000, 2000)

_CLUSTER_NODES = 250  # park is built from uniform 250-node clusters


def _big_park(nodes: int):
    """A synthetic park of ``nodes`` machines: uniform 250-node clusters
    round-robined over the eight paper-era sites (catalog-valid hardware,
    so the ordinary description/actual machinery applies unchanged)."""
    specs = []
    remaining = nodes
    i = 0
    while remaining > 0:
        specs.append(ClusterSpec(
            site=SITE_NAMES[i % len(SITE_NAMES)],
            name=f"k2c{i}",
            nodes=min(_CLUSTER_NODES, remaining),
            cpu_model="Intel Xeon E5-2630 v3",
            cpu_count=2, ram_gb=128, vendor="dell", chassis="Dell R630",
            vintage=2016, nic_models=("Intel X710 10-Gigabit",),
            disk_models=("PERC H330 600GB SAS",), boot_time_s=150.0,
        ))
        remaining -= _CLUSTER_NODES
        i += 1
    return build_grid5000(specs), i


def _make_trace(jobs: int, nodes: int, clusters: int):
    """One deterministic contended trace: (arrival dt, request, duration).

    70 % narrow cluster-scoped jobs, 30 % wide park-spanning jobs (the
    shape that made the linear sweep hurt: park-wide matching sets).  The
    arrival rate targets ~95 % of park capacity: contended enough that a
    queue forms and every completion exercises the replan path, bounded
    enough that throughput does not decay with trace length.
    """
    rng = RngStreams(seed=1702).stream("k2-trace")
    kind = rng.random(jobs)
    cluster = rng.integers(0, clusters, jobs)
    narrow = rng.integers(1, 9, jobs)
    wide = rng.integers(8, 65, jobs)
    duration = rng.uniform(600.0, 7200.0, jobs)
    mean_width = 0.7 * 4.5 + 0.3 * 36.0
    mean_gap = mean_width * 3900.0 / (0.95 * nodes)
    gaps = rng.exponential(mean_gap, jobs)
    trace = []
    for j in range(jobs):
        dur = float(duration[j])
        wall_h = max(1, int(dur * 1.3 / 3600.0) + 1)
        if kind[j] < 0.7:
            req = f"cluster='k2c{cluster[j]}'/nodes={narrow[j]},walltime={wall_h}"
        else:
            req = f"nodes={wide[j]},walltime={wall_h}"
        trace.append((float(gaps[j]), req, dur))
    return trace


def _replay(testbed, trace):
    """Replay the trace through a fresh world; returns (wall_s, oar)."""
    sim = Simulator()
    park = MachinePark.from_testbed(sim, testbed, RngStreams(seed=9))
    oar = OarServer(sim, OarDatabase(ReferenceApi(testbed), ServiceHealth()),
                    park)

    def submitter():
        for gap, req, dur in trace:
            if gap > 0.0:
                yield sim.timeout(gap)
            oar.submit(req, auto_duration=dur)

    sim.process(submitter(), name="k2-submitter")
    t0 = time.perf_counter()
    sim.run()  # drains: every job has an auto_duration
    return time.perf_counter() - t0, oar


def _placement_hash(oar) -> str:
    """sha256 over every job's final placement — the determinism pin."""
    h = hashlib.sha256()
    for job_id in sorted(oar.jobs):
        job = oar.jobs[job_id]
        h.update(f"{job_id}|{job.state.value}|{job.started_at!r}|"
                 f"{job.finished_at!r}|{','.join(job.assigned_nodes)}\n"
                 .encode())
    return h.hexdigest()


def bench_k2_scale(benchmark):
    testbed, clusters = _big_park(_NODES)
    assert testbed.node_count == _NODES
    trace = _make_trace(_JOBS, _NODES, clusters)

    profile_wall, _ = benchmark.pedantic(
        lambda: _replay(testbed, trace), rounds=1, iterations=1)
    _, prefix_oar = _replay(testbed, trace[:_PREFIX_JOBS])
    prefix_hash = _placement_hash(prefix_oar)

    profile_jps = _JOBS / profile_wall

    rows = [
        paper_row("park size / trace length", "-",
                  f"{_NODES} nodes / {_JOBS} jobs"),
        paper_row("profile scheduler", "-", f"{profile_jps:,.0f} jobs/s"),
        paper_row("placement hash (prefix)",
                  _PINNED_PREFIX_HASH[:16] if _DEFAULT_SIZES else "-",
                  prefix_hash[:16]),
    ]
    print_table("K2: scheduling core at scale (ROADMAP item 4)", rows)

    write_results("k2_scale", {
        "jobs": _JOBS,
        "nodes": _NODES,
        "profile_jobs_per_s": round(profile_jps, 1),
    })

    # Behaviour preservation: at the default sizes the prefix must place
    # byte-identically to the retired linear data path.
    if _DEFAULT_SIZES:
        assert prefix_hash == _PINNED_PREFIX_HASH
    # Absolute floor far below any real machine — the committed-baseline
    # comparison in CI (perf.py, 30 % tolerance) is the actual regression
    # gate; this only catches a complexity-class slip.
    assert profile_jps > 200
