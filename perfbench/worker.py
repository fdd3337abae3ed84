"""One measured phase of one workload, in a fresh interpreter.

``run.py`` starts this script once per phase (timed or traced) with a fixed
``PYTHONHASHSEED``; it writes the raw measurements as JSON to ``--out`` and
leaves judging them (output checks, medians, percentiles) to ``run.py``.

Workloads:

* ``campaign`` and ``elastic`` run ``run_scenario`` in process, cycling
  through seeds derived from ``--seed`` until the time is up; repetitions
  of one seed must produce the same report.
* ``remote`` drives a ``repro.cli serve`` subprocess from this one client
  process over one connection: per cycle a reference-client ``RUN`` and a
  two-cell ``SUBM`` (warm worker pool of two, JSONL store), then the same
  ``SUBM`` again, which the store must answer from cache.

Every repetition, cycle and set-up build is bracketed by the host-speed
reference loop (``reference_s``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import RoundTimer, SpanRecorder, Tracer  # noqa: E402

clock = time.perf_counter

#: World constructions timed before the measured part (median -> setup_s).
SETUP_BUILDS = 5
#: Service cold starts timed before the measured part.
COLD_STARTS = 5
#: Distinct simulation seeds one run cycles through (derived from
#: ``--seed``; remote: its RUN seeds): throughput differs by up to ~15 %
#: between seeds, and a remote RUN's median round time by up to 1.7x, so
#: a run averages over several.
SEEDS_PER_RUN = 8
#: Every run makes at least this many repetitions (remote: cycles), so
#: that each seed runs at least once and one seed runs twice: its reports
#: must then be identical.  Peak RSS is read right after them: a fixed
#: amount of work that has run every seed, so the figure is the largest
#: seed's peak plus whatever repetitions leave behind.
MIN_REPS = SEEDS_PER_RUN + 1
#: Size of the host-speed reference loop (about 10 ms on a 2 GHz core).
REFERENCE_STEPS = 10000


@dataclass(frozen=True)
class InProcess:
    scenario: str
    months: float
    strategy: Optional[str] = None


#: Sizes chosen so one repetition takes one to two seconds on one core:
#: each seed then runs several times in a run, and each repetition is
#: short next to the host's speed spells (``run.REFERENCE_NOMINAL_S``).
IN_PROCESS = {
    "campaign": InProcess("paper-baseline", months=0.015),
    "elastic": InProcess("elastic-burst", months=0.02,
                         strategy="steal-agreement"),
}

#: Each remote cycle's SUBM cells are fresh seeds, so the worker pool
#: always has work.
REMOTE_SCENARIO = "tiny-smoke"
REMOTE_RUN_MONTHS = 0.35
REMOTE_CELL_MONTHS = 0.1
REMOTE_WORKERS = 2


def report_sha(report_doc: dict) -> str:
    from repro.util.serialization import canonical_json
    return hashlib.sha256(
        canonical_json(report_doc).encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with the
    repository: heap, dict and call traffic like the simulator's."""
    import heapq

    heap: list = []
    table: dict = {}
    gc.collect()  # not the garbage a repetition left behind
    t0 = clock()
    for i in range(REFERENCE_STEPS):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        table[i & 1023] = table.get((i * 31) & 1023, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return clock() - t0


def with_reference(fn: Any, *args: Any) -> tuple[Any, float]:
    """Run ``fn`` between two reference loops; returns its result and the
    mean reference time, the host's speed around the call."""
    before = reference_s()
    out = fn(*args)
    return out, (before + reference_s()) / 2


class _Built(Exception):
    """Raised from ``on_built`` to stop a run right after construction."""


def time_build(spec: Any, seed: int, months: float) -> float:
    """Wall time from ``run_scenario`` to its ``on_built`` hook."""
    from repro import run_scenario

    def stop(fw: Any) -> None:
        raise _Built

    gc.collect()
    t0 = clock()
    try:
        run_scenario(spec, seed=seed, months=months, on_built=stop)
    except _Built:
        return clock() - t0
    raise RuntimeError("run_scenario never reached on_built")


def one_rep(spec: Any, seed: int, months: float,
            rec: Optional[SpanRecorder]) -> dict:
    from repro import run_scenario

    built_at: list[float] = []
    observed = [0]

    def on_done(job: Any) -> None:
        if not job.immediate and job.started_at is not None:
            observed[0] += 1

    def on_built(fw: Any) -> None:
        built_at.append(clock())
        fw.oar.on_job_complete.append(on_done)

    gc.collect()
    idx = rec.begin(rec.name_id("run_scenario")) if rec is not None else -1
    t0 = clock()
    try:
        _, report = run_scenario(spec, seed=seed, months=months,
                                 on_built=on_built)
    finally:
        t1 = clock()
        if rec is not None:
            rec.finish(idx)
    doc = report.to_dict()
    return {"seed": seed, "build_s": built_at[0] - t0,
            "sim_s": t1 - built_at[0],
            "wall_s": t1 - t0, "jobs": report.jobs_completed,
            "observed_jobs": observed[0], "sha": report_sha(doc)}


def run_in_process(name: str, seed: int, seconds: float, deadline: float,
                   traced: bool, out_prefix: str) -> dict:
    from repro import scenarios

    wl = IN_PROCESS[name]
    spec = scenarios.get(wl.scenario)
    if wl.strategy is not None:
        spec = spec.derive(strategy=wl.strategy)
    result: dict = {"setup": [], "reps": [], "errors": []}
    timer = RoundTimer()
    tracer = None
    if traced:
        tracer = Tracer().install()
        timer.on_strategy.append(tracer.wrap_strategy)
    timer.install()
    seeds = [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]
    if not traced:
        for _ in range(SETUP_BUILDS):
            result["setup"].append(
                with_reference(time_build, spec, seeds[0], wl.months))
    rec = tracer.rec if tracer is not None else None
    start = clock()
    while True:
        i = len(result["reps"])
        if rec is not None:
            rec.run_id = i
        try:
            rep, ref = with_reference(
                one_rep, spec, seeds[i % SEEDS_PER_RUN], wl.months, rec)
            rep["ref"] = ref
            rep["rounds_ms"] = timer.worlds[-1]
            result["reps"].append(rep)
            if len(result["reps"]) == MIN_REPS:
                result["rss_mb"] = peak_rss_mb()
        except Exception:
            result["errors"].append(traceback.format_exc())
            break
        elapsed = clock() - start
        if traced:
            done = len(result["reps"]) >= MIN_REPS  # fixed work: exact counts
        else:
            done = elapsed >= seconds and len(result["reps"]) >= MIN_REPS
        if done or elapsed >= deadline:
            break
    result.setdefault("rss_mb", peak_rss_mb())
    if tracer is not None:
        tracer.uninstall()
        rec.count("scheduling.rounds", len(timer.samples_ms))
        rec.save(out_prefix + "-spans")
        result["spans"] = out_prefix + "-spans"
    return result


# -- remote ---------------------------------------------------------------------


class WireProbe:
    """Client-side ``transport_wrap``: counts connections and resumes and
    times the client's own decisions (last JOBN received -> next line
    sent)."""

    def __init__(self) -> None:
        self.connections = 0
        self.resumes = 0
        self.decide_s = 0.0

    def __call__(self, transport: Any) -> Any:
        self.connections += 1
        return _ProbedTransport(transport, self)


class _ProbedTransport:
    def __init__(self, inner: Any, probe: WireProbe):
        self.inner = inner
        self._probe = probe
        self._deciding_since: Optional[float] = None

    def send_line(self, line: str) -> None:
        if self._deciding_since is not None:
            self._probe.decide_s += clock() - self._deciding_since
            self._deciding_since = None
        if line.startswith("RESM"):
            self._probe.resumes += 1
        self.inner.send_line(line)

    def recv_line(self) -> str:
        line = self.inner.recv_line()
        self._deciding_since = clock() if line.startswith("JOBN") else None
        return line

    def close(self) -> None:
        self.inner.close()


class Server:
    """A ``repro.cli serve`` subprocess started through ``serve.py``."""

    def __init__(self, workdir: str, tag: str, traced: bool):
        self.store = os.path.join(workdir, f"store-{tag}.jsonl")
        self.dump = os.path.join(workdir, f"server-{tag}")
        for path in (self.store, self.dump + ".json"):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, os.path.join(HERE, "serve.py"),
               "--out", self.dump]
        if traced:
            cmd.append("--trace")
        cmd += ["--", "serve", "--port", "0", "--store", self.store]
        self.proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True)
        self.stderr: list[str] = []
        self.port = self._read_port(timeout_s=60.0)
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _read_port(self, timeout_s: float) -> int:
        deadline = clock() + timeout_s
        stream = self.proc.stderr
        while clock() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            line = stream.readline()
            if not line:
                break
            self.stderr.append(line)
            if "serving on" in line:
                return int(line.split("serving on", 1)[1].split()[0]
                           .rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("server did not start: " + "".join(self.stderr))

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[dict]:
        """Interrupt the server, wait for it, and return its dump."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not os.path.exists(self.dump + ".json"):
            return None
        with open(self.dump + ".json") as fh:
            return json.load(fh)


def connect(server: Server, probe: WireProbe) -> Any:
    from repro.service import ReferenceClient
    return ReferenceClient(port=server.port, name="perfbench",
                           timeout_s=120.0, transport_wrap=probe)


def run_remote(seed: int, seconds: float, deadline: float, traced: bool,
               workdir: str, out_prefix: str) -> dict:
    from repro import run_scenario, scenarios
    from repro.core.store import CampaignStore, cell_key

    result: dict = {"setup": [], "cycles": [], "errors": []}
    rec = SpanRecorder() if traced else None
    probe = WireProbe()
    starts = 1 if traced else COLD_STARTS
    server = client = None
    for i in range(starts):
        ref_before = reference_s()
        t0 = clock()
        server = Server(workdir, f"{out_prefix.rsplit('/', 1)[-1]}-{i}",
                        traced)
        try:
            client = connect(server,
                             probe if i == starts - 1 else WireProbe())
        except Exception:
            server.stop()
            raise
        took = clock() - t0
        result["setup"].append((took, (ref_before + reference_s()) / 2))
        if i < starts - 1:
            client.close()
            server.stop()
    assert server is not None and client is not None

    base = seed * 1000
    cycle = 0
    start = clock()
    try:
        while True:
            run_seed = base + cycle % SEEDS_PER_RUN
            seeds = [base + 100 + 2 * cycle, base + 101 + 2 * cycle]
            ref_before = reference_s()
            t0 = clock()
            if rec is not None:
                rec.run_id = cycle
                idx = rec.begin(rec.name_id("ReferenceClient.run_scenario"))
            try:
                run = client.run_scenario(REMOTE_SCENARIO, seed=run_seed,
                                          months=REMOTE_RUN_MONTHS)
            finally:
                if rec is not None:
                    rec.finish(idx)
            subm = []
            for _ in range(2):
                if rec is not None:
                    idx = rec.begin(
                        rec.name_id("ReferenceClient.submit_campaign"))
                try:
                    subm.append(client.submit_campaign(
                        [REMOTE_SCENARIO], seeds,
                        months=REMOTE_CELL_MONTHS, workers=REMOTE_WORKERS))
                finally:
                    if rec is not None:
                        rec.finish(idx)
            wall = clock() - t0
            result["cycles"].append({
                "ref": (ref_before + reference_s()) / 2,
                "seed": run_seed, "cell_seeds": seeds, "wall_s": wall,
                "sha": run["sha256"], "jobs": run["report"]["jobs_completed"],
                "subm": [[status for (_, _, status) in cells]
                         for cells in subm]})
            cycle += 1
            if cycle == MIN_REPS:
                result["rss_mb"] = server.peak_rss_mb()
            elapsed = clock() - start
            done = cycle >= MIN_REPS and (traced or elapsed >= seconds)
            if done or elapsed >= deadline:
                break
    except Exception:
        result["errors"].append(traceback.format_exc())
    finally:
        client.close()
        dump = server.stop()

    if dump is None:
        result["errors"].append("server wrote no dump:\n"
                                + "".join(server.stderr))
        return result
    result.setdefault("rss_mb", dump["rss_mb"])
    if len(dump["worlds"]) == len(result["cycles"]):
        # the server builds one world per RUN, in order
        for entry, rounds in zip(result["cycles"], dump["worlds"]):
            entry["rounds_ms"] = rounds
    else:
        result["errors"].append(
            f"server built {len(dump['worlds'])} worlds for "
            f"{len(result['cycles'])} RUNs")
    result["client"] = {"reconnects": probe.connections - 1,
                        "resumes": probe.resumes,
                        "decide_s": probe.decide_s}

    # Outside the timed part: read the store back and compare with runs
    # made here, in process.
    t0 = clock()
    store = CampaignStore(server.store)
    result["store_load_s"] = clock() - t0
    result["store_bytes"] = os.path.getsize(server.store)
    spec = scenarios.get(REMOTE_SCENARIO)
    for entry in result["cycles"]:
        cells = []
        for s in entry["cell_seeds"]:
            cell = store.get(cell_key(spec, s, REMOTE_CELL_MONTHS))
            cells.append(None if cell is None or cell.report is None else {
                "jobs": cell.report.jobs_completed,
                "sha": report_sha(cell.report.to_dict())})
        entry["cells"] = cells
    if result["cycles"]:
        first = result["cycles"][0]
        _, rep = run_scenario(spec, seed=first["seed"],
                              months=REMOTE_RUN_MONTHS)
        result["in_process_run_sha"] = report_sha(rep.to_dict())
        _, rep = run_scenario(spec, seed=first["cell_seeds"][0],
                              months=REMOTE_CELL_MONTHS)
        result["in_process_cell_sha"] = report_sha(rep.to_dict())
    if rec is not None:
        rec.save(out_prefix + "-spans")
        result["spans"] = out_prefix + "-spans"
        result["server_spans"] = dump.get("spans")
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(IN_PROCESS) + ["remote"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True,
                        help="stop measuring after this many seconds even "
                             "if too few repetitions were made")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # One CPU for this process and everything it starts (the service and
    # its pool inherit the mask): the reference loop then times the core
    # the work runs on.  A shared host's cores slow down independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_prefix = os.path.splitext(args.out)[0]
    if args.workload == "remote":
        result = run_remote(args.seed, args.seconds, args.deadline,
                            args.traced, args.workdir, out_prefix)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds,
                                args.deadline, args.traced, out_prefix)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
