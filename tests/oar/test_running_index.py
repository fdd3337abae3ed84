"""The server's running-job index always equals a fresh scan of job states.

``OarServer.running_jobs()`` returns the maintained ``_running`` list
instead of filtering every job ever submitted, so the index must follow
every way a job enters or leaves RUNNING: a reservation starting, a
release, a normal finish, a walltime kill, a dead-node eviction (shrink
or tear-down back to the queue) and grow/shrink resizes.

The same operation sequences check the Gantt against the jobs after
every step (:func:`_check_gantt`): a scheduled job's ledger is its one
reservation, and a running job's nodes stay busy through its walltime
deadline — the fact that keeps them out of its own grow candidates.
"""

import bisect
import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.faults import ServiceHealth
from repro.nodes import MachinePark
from repro.oar import JobState, OarDatabase, OarServer
from repro.testbed import CLUSTER_SPECS, ReferenceApi, build_grid5000
from repro.util import RngStreams, Simulator

#: Two 6-node clusters: small enough that jobs contend and queue.
_SPECS = [dataclasses.replace(s, nodes=6) for s in CLUSTER_SPECS
          if s.name in ("grisou", "paravance")]
_TESTBED = build_grid5000(_SPECS)
_N = _TESTBED.node_count

_PICK = st.integers(0, 63)
_OPS = st.lists(st.one_of(
    # (cluster, min width, pref - min, max - pref, walltime hours,
    #  run seconds or None)
    st.tuples(st.just("submit"), st.sampled_from(["grisou", "paravance"]),
              st.integers(1, 2), st.integers(0, 2), st.integers(0, 3),
              st.sampled_from([1, 2]),
              st.sampled_from([None, 600.0, 3000.0, 9000.0])),
    st.tuples(st.just("release"), _PICK),
    st.tuples(st.just("crash"), st.integers(0, _N - 1)),
    # crash the first n nodes of a running job's allocation
    st.tuples(st.just("crash_job"), _PICK, st.integers(1, 3)),
    st.tuples(st.just("boot"), st.integers(0, _N - 1)),
    st.tuples(st.just("evict"), _PICK),
    st.tuples(st.just("grow"), _PICK),
    st.tuples(st.just("shrink"), _PICK),
    st.tuples(st.just("advance"), st.floats(0.0, 5000.0)),
), max_size=40)


def _scanned(oar):
    """The running jobs rebuilt from scratch, in job-id order."""
    return [j for j in oar.jobs.values() if j.state is JobState.RUNNING]


def _check_gantt(oar):
    """Each job's node mask agrees with the Gantt's ledger and profile."""
    gantt = oar.gantt
    now = oar.sim.now
    for job in oar.jobs.values():
        mask = gantt.mask_for(job.assignment)
        if job.state is JobState.SCHEDULED:
            start = job.scheduled_start
            assert gantt._ledger[job.job_id] == \
                [(start, start + job.walltime_s, mask)]
        elif job.state is JobState.RUNNING:
            assert mask.bit_count() == job.width
            # Busy on every profile step that meets [now, deadline).
            deadline = job.started_at + job.walltime_s
            times, masks = gantt.profile._times, gantt.profile._masks
            i = bisect.bisect_right(times, now) - 1
            while now < deadline and i < len(times) and times[i] < deadline:
                assert masks[i] & mask == 0, (job.job_id, times[i])
                i += 1
            assert oar.grow_candidates(job) & mask == 0


def _pick(jobs, i):
    return jobs[i % len(jobs)] if jobs else None


@settings(max_examples=80, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 3))
# A dead node drops a 2..2 job below its minimum: tear-down to the queue.
@example(ops=[("submit", "grisou", 2, 0, 0, 1, 600.0), ("advance", 1.0),
              ("crash_job", 0, 1), ("evict", 0)], seed=0)
# Job 2 waits behind job 1 while job 3 backfills, so job 2 starts after
# job 3 yet must sit before it in the index.
@example(ops=[("submit", "grisou", 4, 0, 0, 1, 600.0),
              ("submit", "grisou", 4, 0, 0, 1, 600.0),
              ("submit", "grisou", 2, 0, 0, 1, 3000.0),
              ("advance", 1.0), ("advance", 1000.0)], seed=0)
# A malleable job grows twice, then shrinks: random operation lists
# rarely reach a grow, so this pins the Gantt checks on resized jobs.
@example(ops=[("submit", "grisou", 1, 0, 2, 1, None),
              ("submit", "grisou", 1, 0, 0, 1, 600.0),
              ("advance", 0.0), ("grow", 0), ("grow", 0), ("shrink", 0),
              ("advance", 1000.0)], seed=0)
def test_running_index_equals_fresh_scan(ops, seed):
    sim = Simulator()
    park = MachinePark.from_testbed(sim, _TESTBED, RngStreams(seed=seed))
    oar = OarServer(sim, OarDatabase(ReferenceApi(_TESTBED), ServiceHealth()),
                    park)
    uids = park.uids
    for op in ops:
        kind = op[0]
        running = _scanned(oar)
        if kind == "submit":
            _, cluster, lo, extra, spread, hours, run_s = op
            pref = lo + extra
            oar.submit(f"cluster='{cluster}'/nodes={lo}..{pref}..{pref + spread},"
                       f"walltime={hours}", auto_duration=run_s)
        elif kind == "release":
            job = _pick(running, op[1])
            if job is not None:
                oar.release(job)
        elif kind == "crash":
            park[uids[op[1]]].crash()
        elif kind == "crash_job":
            job = _pick(running, op[1])
            if job is not None:
                for uid in job.assignment[:op[2]]:
                    park[uid].crash()
        elif kind == "boot":
            sim.process(park[uids[op[1]]].boot())
        elif kind == "evict":
            job = _pick(running, op[1])
            if job is not None:
                oar.evict_dead_nodes(job)
        elif kind == "grow":
            job = _pick(running, op[1])
            if job is not None and job.width < job.max_nodes:
                candidates = oar.grow_candidates(job)
                oar.grow(job, candidates & -candidates)
        elif kind == "shrink":
            job = _pick(running, op[1])
            if job is not None and job.width > job.min_nodes:
                oar.replan_now(oar.shrink(job, 1))
        else:
            sim.run(until=sim.now + op[1])
        assert oar.running_jobs() == _scanned(oar)
        _check_gantt(oar)
    sim.run(until=sim.now + 3 * 3600.0)  # walltimes run out
    assert oar.running_jobs() == _scanned(oar)
    _check_gantt(oar)


def test_running_jobs_is_a_copy():
    sim = Simulator()
    park = MachinePark.from_testbed(sim, _TESTBED, RngStreams(seed=0))
    oar = OarServer(sim, OarDatabase(ReferenceApi(_TESTBED), ServiceHealth()),
                    park)
    job = oar.submit("cluster='grisou'/nodes=2,walltime=1", auto_duration=60.0)
    sim.run(until=1.0)
    listed = oar.running_jobs()
    assert listed == [job]
    listed.clear()
    assert oar.running_jobs() == [job]
