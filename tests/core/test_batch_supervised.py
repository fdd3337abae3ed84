"""Campaign supervision: deadlines, retries, quarantine, worker death.

A matrix containing one cell that hangs (months far past any reasonable
wall-clock budget) and one that crashes on every attempt completes
anyway — the hung cell is killed at its deadline and quarantined, the
crasher exhausts its retries and is quarantined, the healthy cells are
untouched — and a resumed sweep serves both poison cells from the store
instead of looping on them.  A worker killed mid-cell costs only that
cell, under the default knobs too.
"""

import multiprocessing
import os
import signal
import threading
import time

from repro import scenarios
from repro.core.batch import run_campaigns, shutdown_worker_pool
from repro.core.store import CampaignStore
from repro.oar.traces import TraceReplayConfig

BASE = scenarios.get("tiny-smoke")
HEALTHY = BASE.derive(name="healthy", months=0.03)
#: A deterministic hang: the simulation itself is fine, it just needs
#: geological wall-clock time — exactly what the watchdog is for.
HUNG = BASE.derive(name="hung-cell", months=1e9)
#: Crashes in the worker on every attempt: the trace file cannot exist.
CRASHER = BASE.derive(
    name="crasher",
    workload=TraceReplayConfig(path="/nonexistent/chaos-trace.swf"))


def test_hung_and_crashing_cells_are_contained(tmp_path):
    store = CampaignStore(str(tmp_path / "store.jsonl"))
    runs = run_campaigns([HEALTHY, HUNG, CRASHER], seeds=[0],
                         workers=2, store=store, resume=True,
                         cell_timeout_s=2.0, max_cell_attempts=2,
                         retry_backoff_s=0.01)
    by = {r.scenario: r for r in runs}
    assert by["healthy"].ok and not by["healthy"].quarantined

    hung = by["hung-cell"]
    assert not hung.ok and hung.quarantined
    assert "timed out" in hung.error and "replaced" in hung.error

    crash = by["crasher"]
    assert not crash.ok and crash.quarantined
    assert "chaos-trace.swf" in crash.error

    # every verdict was durably recorded
    stored = {c.scenario: c for c in store.cells()}
    assert stored["healthy"].ok
    assert stored["hung-cell"].quarantined
    assert stored["crasher"].quarantined

    # a resumed sweep serves all three from the store: quarantine means
    # "final", so neither poison cell runs (or hangs) again
    cached_flags = []
    rerun = run_campaigns([HEALTHY, HUNG, CRASHER], seeds=[0],
                          workers=2, store=CampaignStore(store.path),
                          resume=True, cell_timeout_s=2.0,
                          max_cell_attempts=2, retry_backoff_s=0.01,
                          on_cell=lambda run, cached: cached_flags.append(
                              (run.scenario, cached)))
    assert sorted(cached_flags) == [("crasher", True), ("healthy", True),
                                    ("hung-cell", True)]
    assert {r.scenario: r.quarantined for r in rerun} == {
        "healthy": False, "hung-cell": True, "crasher": True}


def test_single_attempt_crash_is_an_ordinary_failure(tmp_path):
    """Without retries configured a crash is recorded but NOT quarantined
    — resume still heals it by re-running the cell."""
    store = CampaignStore(str(tmp_path / "store.jsonl"))
    (run,) = run_campaigns([CRASHER], seeds=[0], workers=1, store=store,
                           resume=True, cell_timeout_s=30.0)
    assert not run.ok and not run.quarantined
    cached_flags = []
    run_campaigns([CRASHER], seeds=[0], workers=1,
                  store=CampaignStore(store.path), resume=True,
                  cell_timeout_s=30.0,
                  on_cell=lambda r, cached: cached_flags.append(cached))
    assert cached_flags == [False], "an ordinary failure must be retried"


def test_supervision_off_keeps_the_fast_paths(tmp_path):
    """Default knobs (no deadline, one attempt) still record a crash as
    a plain failure that a resume retries, not as a quarantined one."""
    store = CampaignStore(str(tmp_path / "store.jsonl"))
    runs = run_campaigns([HEALTHY, CRASHER], seeds=[0], workers=1,
                         store=store, resume=True)
    by = {r.scenario: r for r in runs}
    assert by["healthy"].ok
    assert not by["crasher"].ok and not by["crasher"].quarantined


def test_killed_worker_fails_its_cell_and_the_fleet_heals():
    """SIGKILL one worker mid-cell under the default knobs: the batch
    still returns, the killed cell is an ordinary (non-quarantined)
    failure, the other cell is unharmed, and the next batch runs on the
    healed fleet."""
    slow = BASE.derive(name="slow", months=0.6)  # about a second per cell
    shutdown_worker_pool()
    result = {}
    sweep = threading.Thread(
        target=lambda: result.update(
            runs=run_campaigns([slow], seeds=[0, 1], workers=2)),
        daemon=True)
    sweep.start()
    give_up = time.monotonic() + 30
    while (len(multiprocessing.active_children()) < 2
           and time.monotonic() < give_up):
        time.sleep(0.01)
    time.sleep(0.2)  # cells are dispatched as soon as the fleet is up
    workers = multiprocessing.active_children()
    assert len(workers) == 2
    os.kill(workers[0].pid, signal.SIGKILL)
    sweep.join(timeout=120)
    assert not sweep.is_alive(), "a dead worker wedged the sweep"

    failed = [r for r in result["runs"] if not r.ok]
    assert len(failed) == 1
    assert "worker died" in failed[0].error
    assert not failed[0].quarantined
    assert sum(1 for r in result["runs"] if r.ok) == 1

    healed = run_campaigns([HEALTHY], seeds=[0, 1], workers=2)
    assert all(r.ok for r in healed)
    assert len(multiprocessing.active_children()) == 2
