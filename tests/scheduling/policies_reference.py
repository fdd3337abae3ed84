"""Reference ``DefaultStrategy`` tick the index and gate oracles compare
against.

:func:`on_tick` is the tick as it ran before the scheduler kept a due
index and before the calendar gate was asked once per family kind: it
scans every cell for the due ones and calls ``policy.allows_now`` for
each of them.  Production must make the same ``launch``/``defer`` calls
in the same order, so this straightforward loop is kept here, out of
production code, as the oracle.
"""


def due_scan(scheduler, now):
    """The due cells by definition: not in flight, attempt time come."""
    return [c for c in scheduler.cells
            if not c.in_flight and c.next_attempt_at <= now]


def on_tick(strategy, view):
    policy = strategy.policy
    now = view.now
    for cell in due_scan(view.scheduler, now):
        if not policy.allows_now(cell.family.kind, now):
            continue  # retry next tick; no backoff growth for calendar
        if view.in_flight(cell.site) >= policy.max_concurrent_per_site:
            continue
        if policy.check_resources_first \
                and not view.resources_available(cell):
            view.defer(cell)
            continue
        view.launch(cell)
