"""Reference elastic decisions the oracle test compares production against.

* :func:`negotiate` — the steal round without the per-tick donor table:
  for every queued job short of nodes it re-lists the running malleable
  jobs and recomputes each donor's feasibility floor, width and
  newest-first givable uids, and it keeps the round's ledger of claimed
  nodes as a plain set of bit positions.
* :func:`expand` — the round-robin grow as it ran before the candidate
  masks: every round re-lists the running malleable jobs and asks
  ``grow_candidates`` again for each job with headroom.

Production must make the same ``grow``/``shrink``/``replan_now`` calls,
in the same order with the same arguments, so these straightforward
loops are kept here, out of production code, as the oracle.
"""

from repro.scheduling.elastic import StealAgreementStrategy


def _running_malleable(oar):
    return [j for j in oar.running_jobs() if j.malleable]


def expand(strategy, oar):
    """Round-robin grow: one node per job per round until the pool or
    every job's headroom is exhausted."""
    while True:
        granted = False
        for job in _running_malleable(oar):
            if job.width >= job.max_nodes:
                continue
            candidates = oar.grow_candidates(job)
            if not candidates:
                continue
            oar.grow(job, candidates & -candidates)  # the first candidate
            granted = True
        if not granted:
            return


def negotiate(strategy, oar, queued):
    """One steal round, FCFS over the queued jobs, all-or-nothing, settled
    against a ledger of claimed nodes; returns the freed mask (the tick
    replans once, after the round)."""
    now = oar.sim.now
    gantt = oar.gantt
    bit = gantt.bit
    claimed = set()  # node bits promised to an earlier queued job
    freed = 0
    for job in queued:
        count = job.request.count
        if not isinstance(count, int):
            continue
        usable = oar.matching_mask(job.request.expr) & oar.machines.alive_mask
        if not usable:
            continue
        window = max(job.walltime_s, 1.0)
        free_mask = gantt.profile_free_mask(usable, now, now + window)
        free = [b for b in range(free_mask.bit_length())
                if free_mask >> b & 1 and b not in claimed]
        deficit = count - len(free)
        if deficit <= 0:
            claimed.update(free[:count])  # its lowest free nodes
            continue
        offers = []
        offered = 0
        for donor in _running_malleable(oar):
            floor = StealAgreementStrategy._feasible_floor(donor, now)
            room = donor.width - floor
            if room <= 0:
                continue
            givable = [u for u in reversed(donor.assignment)
                       if usable >> bit(u) & 1][:room]
            if not givable:
                continue
            take = min(len(givable), deficit - offered)
            offers.append((donor, givable[:take]))
            offered += take
            if offered >= deficit:
                break
        if offered < deficit:
            continue
        for donor, uids in offers:
            gone = oar.shrink(donor, len(uids), prefer=usable)
            # Shrink's tail-first walk restricted to ``usable`` frees
            # exactly the newest-first givable uids.
            assert gone == gantt.mask_for(uids), (donor.job_id, uids)
            freed |= gone
            claimed.update(bit(u) for u in uids)
        claimed.update(free)
    return freed
