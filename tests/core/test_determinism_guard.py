"""Determinism guard: seeded campaigns must be byte-for-byte reproducible.

The golden hashes below were recorded with the *pre-fast-path* event
kernel (PR 4 state) and re-verified unchanged after the kernel overhaul:
the timeout fast path, the lazy-cancelled heap entries, the instant-queue
split, the scheduler's batched ``earliest_start`` and the monitoring
series handles all preserve the exact (time, seq) execution order.

Re-pinned once for the elastic-scheduling PR: the report document gained
scoreboard fields (strategy, turnaround/wait means, utilization,
grow/shrink counters), which changes the hash of the *document*.  Every
pre-existing field was diffed against a pre-change capture and came back
byte-identical — rigid workloads behave exactly as before (these presets
all run the ``default`` strategy; ``grow_events == shrink_events == 0``).

The two ``elastic-burst`` rows pin the malleable policies
(``common-pool`` and ``steal-agreement``), so ``grow_candidates``,
``evict_dead_nodes`` and the steal negotiation are guarded too; they
were recorded before node liveness moved onto the park's alive bitmask
and passed unchanged after it.

The ``steal-agreement`` row was re-pinned once more when the steal round
became a ledger round with one replan per tick (each agreement used to
re-place the queue before the next queued job negotiated; now the round
assumes the negotiating job gets the nodes it freed and one FCFS replan
after the round decides).  The field-by-field diff of that report, old ->
new, with every other field byte-identical (``jobs_completed`` too):
``grow_events`` 2266 -> 2242, ``shrink_events`` 1296 -> 1285,
``total_builds`` 100 -> 97, ``unstable_builds`` 9 -> 5, ``wait_mean_s``
3514.19 -> 3456.33, ``turnaround_mean_s`` 10179.58 -> 10179.14,
``node_utilization`` 0.78732 -> 0.78834, ``first_month_success``,
``last_month_success`` and the one ``weekly_success_rates`` entry
0.94505 -> 0.94565.  The other five rows did not move.

If this test fails, a change altered simulation *behaviour*, not just
performance.  That can be a legitimate semantic change — in which case
regenerate the goldens (see the command in ``_regenerate``) and say so in
the PR — but it must never happen as a side effect of an optimization.
"""

import hashlib
import json

from repro import run_scenario, scenarios

#: (preset, strategy, seed, months) -> sha256 of the canonical report JSON.
GOLDEN_REPORT_HASHES = {
    ("tiny-smoke", "default", 0, 0.35):
        "9bdda769fd2724d5735a3b42d3d3ef6ac74627fa7b5201f01c01435b3e13b426",
    ("tiny-smoke", "default", 7, 0.35):
        "5171b73dc13519040f6fff3b3523b955a3e3694d543f3c661204f3a232b4ac23",
    ("trace-replay", "default", 0, 0.12):
        "3b7fb0c6401f465217e2ee5e0a1228f52b1e5f6e37f12878365e9b83257e7581",
    ("bursty-replay", "default", 0, 0.12):
        "860f0f8d257ea576cf44d51b9933df1903880fad2c3e2a7f60e976ce4c4026f6",
    ("elastic-burst", "common-pool", 0, 0.02):
        "32ece6b0b629ee4cd1190d32c25d2e29d8a2e03d006684f94b8277d05ed76a91",
    ("elastic-burst", "steal-agreement", 0, 0.02):
        "3d05a386a847aab72470cf32230b2ff9fed5e31c9d9e693ffc78855d41f13e70",
}


def _run(name, strategy, seed, months):
    spec = scenarios.get(name).derive(strategy=strategy)
    return run_scenario(spec, seed=seed, months=months)


def report_hash(report) -> str:
    """Canonical content hash of a campaign report (sorted keys, no
    whitespace) — any behavioural drift anywhere in the stack lands in
    some report field and changes this."""
    doc = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _regenerate():  # pragma: no cover - manual tool
    """python -c "import sys; sys.path[:0] = ['src', 'tests/core']; \
from test_determinism_guard import _regenerate; _regenerate()"
    """
    for key in GOLDEN_REPORT_HASHES:
        _, rep = _run(*key)
        print(f'    {key!r}:\n'
              f'        "{report_hash(rep)}",')


def test_reports_match_pre_fast_path_goldens():
    for (name, strategy, seed, months), want in GOLDEN_REPORT_HASHES.items():
        _, report = _run(name, strategy, seed, months)
        got = report_hash(report)
        assert got == want, (
            f"{name}/{strategy} @ seed {seed} ({months} months) drifted from the "
            f"golden report: {got} != {want} — simulation behaviour "
            "changed, not just speed")


def test_repeated_run_is_byte_identical():
    spec = scenarios.get("tiny-smoke")
    _, first = run_scenario(spec, seed=3, months=0.1)
    _, second = run_scenario(spec, seed=3, months=0.1)
    assert report_hash(first) == report_hash(second)
