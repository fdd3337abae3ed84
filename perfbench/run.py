"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign|elastic|remote \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload twice: untraced for half of ``--seconds``,
then with the span recorder for a fixed number of repetitions (so every
count repeats exactly), and reports the per-layer metrics and the tracing
overhead.  Every phase runs in a fresh interpreter with a fixed
``PYTHONHASHSEED``, pinned to one CPU (``worker.py``).  Timings are
reported at nominal host speed (``REFERENCE_NOMINAL_S``); the raw figures
are printed beside them.

Human-readable lines (each metric with its unit and sample count, the
failed checks, the layer shares) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The command exits 0 when every output check passed and 1,
after printing that line, when one failed; run anywhere but a repository
root (no ``src/repro``), it exits 2 without a result.

The operations counted in ``attempted`` are those a check can fail: each
repetition (remote: cycle), each ``SUBM`` cell, the client connection,
each cross-run comparison and each reported percentile.  Output checks
(each failure counts against ``success_ratio``):

* every repetition of an in-process workload reports the same sha256,
  and its completed-job count equals the completions OAR announced;
* the traced run's reports equal the untraced run's;
* the remote ``RUN`` report and the stored ``SUBM`` cell equal the same
  cells run in process (checked once per run, outside the timed part);
* the first ``SUBM`` executes every cell and the second is 100 % cached;
* no client reconnect, ``RESM`` or error reply.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("campaign", "elastic", "remote")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)

#: Every timing is scaled to a host on which the worker's reference loop
#: takes this long, using the loop's time measured right before and after
#: the repetition (cycle, build) the timing comes from.  The shared host
#: the benchmark was built on drifts between speeds up to 1.8x apart for
#: minutes at a time; unscaled, the spread over ten runs was 25-35 %.
#: 7.5 ms is the loop's time there in a fast spell.
REFERENCE_NOMINAL_S = 0.0075

#: One benchmark command must end within 180 s; the measured loops stop
#: early rather than overrun this budget.
BUDGET_S = 170.0
OUT_DIR = ".perfbench-out"


def layer_unit(name: str) -> str:
    if name.endswith("jobs_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", ".overhead")):
        return "ratio"
    if name.endswith("_per_job"):
        return "calls/job"
    if name.endswith(("bytes", "bytes_in", "bytes_out")):
        return "B"
    return "count"


class Verdict:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @property
    def ratio(self) -> float:
        return 1.0 - len(self.failures) / max(1, self.attempted)


def run_phase(args: argparse.Namespace, traced: bool, seconds: float,
              deadline: float, env: dict) -> dict:
    name = f"{args.workload}-{args.seed}-{'traced' if traced else 'timed'}"
    out = os.path.join(OUT_DIR, name + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--deadline", repr(deadline),
           "--workdir", OUT_DIR, "--out", out]
    if traced:
        cmd.append("--traced")
    # Own process group: the worker's service subprocess and its pool go
    # down with it, also on a timeout.
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=deadline + 30)
    finally:
        try:  # whatever the worker left running, timed out or not
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    with open(out) as fh:
        return json.load(fh)


# -- checks -------------------------------------------------------------------


def check_phase(workload: str, phase: dict, v: Verdict, label: str) -> None:
    for err in phase["errors"]:
        v.check(False, f"{label}: {err.strip().splitlines()[-1]}")
        v.ops(1)
    reps = entries(workload, phase)
    v.ops(len(reps))
    first: dict[int, str] = {}
    for i, rep in enumerate(reps):
        v.check(first.setdefault(rep["seed"], rep["sha"]) == rep["sha"],
                f"{label}: repetition {i} (seed {rep['seed']}) report "
                "sha256 differs from the earlier run of that seed")
        v.check(rep["jobs"] > 0, f"{label}: repetition {i} completed no job")
        if workload != "remote":
            v.check(rep["jobs"] == rep["observed_jobs"],
                    f"{label}: repetition {i} reports {rep['jobs']} jobs, "
                    f"OAR completed {rep['observed_jobs']}")
    v.check(len(reps) > len(first),
            f"{label}: no seed was run twice, so no report was compared")
    if workload == "remote":
        check_remote(phase, v, label)


def check_remote(phase: dict, v: Verdict, label: str) -> None:
    cycles = phase["cycles"]
    client = phase.get("client", {})
    v.ops(1)  # the one connection
    v.check(client.get("reconnects", 0) == 0, f"{label}: client reconnected")
    v.check(client.get("resumes", 0) == 0, f"{label}: client sent RESM")
    for i, cyc in enumerate(cycles):
        first, second = cyc["subm"]
        seeds = cyc["cell_seeds"]
        v.ops(len(first) + len(second))
        v.check(first == ["ok"] * len(seeds),
                f"{label}: cycle {i} SUBM statuses {first}")
        v.check(second == ["cached"] * len(seeds),
                f"{label}: cycle {i} resubmission not all cached: {second}")
        for seed, cell in zip(seeds, cyc.get("cells", [None] * len(seeds))):
            v.check(cell is not None and cell["jobs"] > 0,
                    f"{label}: cycle {i} cell seed {seed} missing from store")
    if cycles and "cells" in cycles[0]:
        v.ops(2)
        v.check(cycles[0]["sha"] == phase.get("in_process_run_sha"),
                f"{label}: remote RUN sha256 differs from in-process run")
        cell = cycles[0]["cells"][0]
        v.check(cell is not None
                and cell["sha"] == phase.get("in_process_cell_sha"),
                f"{label}: stored SUBM cell sha256 differs from in-process")


def shas_by_input(workload: str, phase: dict) -> dict:
    """Report sha256 per simulation seed (derived from ``--seed`` only)."""
    return {r["seed"]: r["sha"] for r in entries(workload, phase)}


# -- metrics ------------------------------------------------------------------


def entries(workload: str, phase: dict) -> list[dict]:
    """The repetitions (remote: cycles) of a phase."""
    return phase["cycles" if workload == "remote" else "reps"]


def slowness(ref_s: float) -> float:
    """How much slower than nominal the host ran around a measurement."""
    return ref_s / REFERENCE_NOMINAL_S


def jobs_per_s(workload: str, phase: dict) -> tuple[float, int]:
    """User jobs completed per second at nominal host speed: per seed the
    median over its repetitions, then the median over seeds.  A remote
    cycle's jobs are its RUN's and its freshly executed SUBM cells'."""
    by_seed: dict[int, list[float]] = {}
    for e in entries(workload, phase):
        if workload == "remote":
            jobs = e["jobs"] + sum(c["jobs"] for c in e.get("cells", ())
                                   if c is not None)
            seconds = e["wall_s"]
        else:
            jobs, seconds = e["jobs"], e["sim_s"]
        by_seed.setdefault(e["seed"], []).append(
            jobs / seconds * slowness(e["ref"]))
    return (statistics.median(statistics.median(v) for v in by_seed.values()),
            len(by_seed))


def decision_rounds(workload: str, phase: dict) -> list[float]:
    """Every decision round's duration at nominal host speed."""
    return [t / slowness(e["ref"]) for e in entries(workload, phase)
            for t in e.get("rounds_ms", ())]


def end_to_end(workload: str, phase: dict, v: Verdict
               ) -> tuple[dict, dict]:
    values: dict[str, float] = {}
    samples: dict[str, str] = {}
    setup = [(s, ref) for s, ref in phase["setup"]]
    if workload != "remote":
        setup += [(r["build_s"], r["ref"]) for r in phase["reps"]]
    refs = [e["ref"] for e in entries(workload, phase)]
    if setup:
        values["setup_s"] = statistics.median(s / slowness(ref)
                                              for s, ref in setup)
        samples["setup_s"] = (
            f"median of {len(setup)} "
            + ("cold starts" if workload == "remote" else "world builds")
            + f"; raw {statistics.median(s for s, _ in setup):.4g} s")
    if refs:
        values["jobs_per_s"], n = jobs_per_s(workload, phase)
        samples["jobs_per_s"] = (
            f"{n} seeds; host {statistics.median(map(slowness, refs)):.2f}x "
            "slower than nominal")
    rounds = decision_rounds(workload, phase)
    for q, key in ((50, "decision_p50_ms"), (95, "decision_p95_ms")):
        v.ops(1)
        try:
            values[key] = stats.percentile(rounds, q)
        except stats.TooFewSamples as exc:
            v.check(False, f"{key} not reported: {exc}")
            continue
        samples[key] = (f"{len(rounds)} rounds, "
                        f"{stats.beyond(rounds, values[key])} beyond")
    if "rss_mb" in phase:
        values["peak_rss_mb"] = phase["rss_mb"]
        samples["peak_rss_mb"] = ("server process" if workload == "remote"
                                  else "simulating process")
    return values, samples


#: Per-layer figures the worker measures directly (zero where the
#: workload has no service client or store).
CLIENT_METRICS = ("core.store.bytes", "core.store.load_s",
                  "core.store.hit_ratio", "core.batch.cells",
                  "service.client.decide_s", "service.client.retries",
                  "service.errors")
TRACE_METRICS = ("trace.wall_s", "trace.unattributed_s",
                 "trace.attributed_share", "trace.jobs_per_s",
                 "trace.untraced_jobs_per_s", "trace.overhead")


def per_layer_names(sp: Any) -> list[str]:
    from layers import layer_metrics
    return list(layer_metrics(sp, {})) + list(CLIENT_METRICS) \
        + list(TRACE_METRICS)


def per_layer(workload: str, timed: dict, traced: dict,
              v: Verdict) -> tuple[dict, list[tuple[str, float]]]:
    from layers import UNATTRIBUTED, Spans, layer_metrics
    from spans import adopt_roots, load_spans

    arrays, names, counts = load_spans(traced["spans"])
    if workload == "remote":
        server, s_names, s_counts = load_spans(traced["server_spans"])
        server["name"] = server["name"] + len(names)
        arrays = adopt_roots(arrays, server)
        names = names + s_names
        counts = dict(s_counts)
    sp = Spans(arrays, names)
    values = layer_metrics(sp, counts)
    values.update(dict.fromkeys(CLIENT_METRICS, 0.0))
    values["service.errors"] = (counts.get("service.errors", 0)
                                + len(traced["errors"]))
    if workload == "remote":
        client = traced.get("client", {})
        cells = [s for c in traced["cycles"] for sub in c["subm"] for s in sub]
        values.update({
            "core.store.bytes": traced.get("store_bytes", 0),
            "core.store.load_s": traced.get("store_load_s", 0.0),
            "core.store.hit_ratio": (cells.count("cached") / len(cells)
                                     if cells else 0.0),
            "core.batch.cells": len(cells),
            "service.client.decide_s": client.get("decide_s", 0.0),
            "service.client.retries": (client.get("reconnects", 0)
                                       + client.get("resumes", 0)),
        })

    layer_self = sp.layer_self()
    # The measured part: the repetitions (cycles) themselves, without the
    # collection and hashing the benchmark does between them.
    wall = sum(r["wall_s"] for r in entries(workload, traced))
    share = check_coverage(layer_self, wall, v)
    untraced_rate, _ = jobs_per_s(workload, timed)
    traced_rate, _ = jobs_per_s(workload, traced)
    values.update({
        "trace.wall_s": wall,
        "trace.unattributed_s": layer_self[UNATTRIBUTED],
        "trace.attributed_share": share,
        "trace.jobs_per_s": traced_rate,
        "trace.untraced_jobs_per_s": untraced_rate,
        "trace.overhead": untraced_rate / traced_rate,
    })
    shares = sorted(((layer, t / wall) for layer, t in layer_self.items()),
                    key=lambda kv: -kv[1])
    return values, shares


def check_coverage(layer_self: dict[str, float], wall: float,
                   v: Verdict) -> float:
    """The share of ``wall`` the layers' self times cover; must be within
    5 % of 1.  Self time left in the benchmark's own run spans (no layer
    span below them covers it) does not count."""
    from layers import UNATTRIBUTED

    attributed = sum(t for layer, t in layer_self.items()
                     if layer != UNATTRIBUTED)
    v.ops(1)
    v.check(abs(attributed / wall - 1.0) <= 0.05,
            f"layer self times cover {attributed / wall:.1%} of the traced "
            "wall time (must be within 5 %)")
    return attributed / wall


# -- command ------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)

    v = Verdict()
    shares: list[tuple[str, float]] = []
    if args.trace == 0:
        deadline = BUDGET_S - 50
        timed = run_phase(args, False, args.seconds, deadline, env)
        check_phase(args.workload, timed, v, "timed")
        values, samples = end_to_end(args.workload, timed, v)
        values["success_ratio"] = v.ratio
        samples["success_ratio"] = (f"{v.attempted - len(v.failures)} of "
                                    f"{v.attempted} operations")
        units = dict(END_TO_END)
    else:
        half = max(1.0, args.seconds / 2)
        deadline = (BUDGET_S - 60) / 2
        timed = run_phase(args, False, half, deadline, env)
        traced = run_phase(args, True, half, deadline, env)
        check_phase(args.workload, timed, v, "timed")
        check_phase(args.workload, traced, v, "traced")
        timed_shas = shas_by_input(args.workload, timed)
        traced_shas = shas_by_input(args.workload, traced)
        common = set(timed_shas) & set(traced_shas)
        v.ops(1)
        v.check(bool(common) and all(timed_shas[k] == traced_shas[k]
                                     for k in common),
                "traced report sha256 differs from the untraced one")
        values, shares = per_layer(args.workload, timed, traced, v)
        samples = {}
        units = {name: layer_unit(name) for name in values}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name in sorted(values):
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:42s} {values[name]:14.6g} {units[name]}{extra}")
    if shares:
        print("  self-time share of the traced wall time by layer:")
        for layer, share in shares:
            print(f"    {layer:24s} {share:7.1%}")
    for failure in v.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": not v.failures,
        "attempted": v.attempted,
        "failed": len(v.failures),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in sorted(values)},
    }
    print(json.dumps(result), flush=True)
    return 1 if v.failures else 0


if __name__ == "__main__":
    sys.exit(main())
