"""The scheduler's due index always equals a fresh scan of the cells.

``TickView.due_cells()`` reads the index (per-(site, kind) due runs plus a
heap of future attempts) instead of filtering every cell, so the index
must follow every write to a cell's ``in_flight`` or ``next_attempt_at``:
a launch, a build finishing SUCCESS (cadence) or UNSTABLE/ABORTED
(backoff), a defer, and time passing.  After each such step the due cells
must be exactly the scan's, in cell order, and every cell must sit in
exactly one place: a due run, a live heap entry or in flight.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro import scenarios
from repro.ci.job import BuildStatus
from repro.core import FrameworkBuilder
from repro.scheduling import ExternalScheduler, SchedulerPolicy
from repro.scheduling.launcher import TickView
from repro.util import DAY, HOUR

import policies_reference

#: tiny-smoke: 125 cells over two sites and both family kinds.
_WORLD = FrameworkBuilder(scenarios.get("tiny-smoke")).build()
_FAMILIES = list(dict.fromkeys(c.family for c in _WORLD.scheduler.cells))


class _Clock:
    now = 0.0


class _Event:
    def add_callback(self, fn):
        pass  # builds finish only through the test's "done" steps


class _Jenkins:
    def trigger(self, job_name, parameters=None, cause=None):
        return _Build(None)


@dataclass
class _Build:
    status: BuildStatus

    @property
    def done_event(self):
        return _Event()


_PICK = st.integers(0, 1 << 16)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("launch"), _PICK),
    st.tuples(st.just("done"), _PICK,
              st.sampled_from([BuildStatus.SUCCESS, BuildStatus.UNSTABLE,
                               BuildStatus.ABORTED])),
    st.tuples(st.just("defer"), _PICK),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 60.0, 300.0, HOUR, 5 * HOUR, DAY,
                               3 * DAY, 8 * DAY])),
), max_size=60)


def _check(s):
    now = s.sim.now
    view = TickView(s)
    due = view.due_cells()
    assert due == policies_reference.due_scan(s, now)
    assert view.due_cells() == due  # reading does not change the index
    cells = s.cells
    placed = [cid for run in s._runs for cid in run]
    for site, runs in view.due_runs().items():
        for kind, run in runs.items():
            assert run == sorted(run)
            assert all(cells[cid].site == site
                       and cells[cid].family.kind == kind for cid in run)
    for t, cid, version in s._future:
        if version == s._version[cid]:
            assert t == cells[cid].next_attempt_at > now
            placed.append(cid)
    placed += [cid for cid, c in enumerate(cells) if c.in_flight]
    assert sorted(placed) == list(range(len(cells)))


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, backoff_s=st.sampled_from([0.0, HOUR]))
def test_due_index_equals_fresh_scan(ops, backoff_s):
    policy = SchedulerPolicy(backoff_initial_s=backoff_s)
    s = ExternalScheduler(_Clock(), _Jenkins(), _WORLD.oar, _WORLD.testbed,
                          _FAMILIES, policy=policy)
    cells = s.cells
    _check(s)
    for op in ops:
        idle = [c for c in cells if not c.in_flight]
        busy = [c for c in cells if c.in_flight]
        if op[0] == "launch" and idle:
            TickView(s).launch(idle[op[1] % len(idle)])
        elif op[0] == "done" and busy:
            s._on_done(busy[op[1] % len(busy)], _Build(op[2]))
        elif op[0] == "defer" and idle:
            TickView(s).defer(idle[op[1] % len(idle)])
        elif op[0] == "advance":
            s.sim.now += op[1]
        _check(s)
