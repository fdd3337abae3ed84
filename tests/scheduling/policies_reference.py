"""Reference ``DefaultStrategy`` tick the gate oracle compares against.

:func:`on_tick` is the tick as it ran before the calendar gate was asked
once per family kind: it calls ``policy.allows_now`` for every due cell.
Production must make the same ``launch``/``defer`` calls in the same
order, so this straightforward loop is kept here, out of production
code, as the oracle.
"""


def on_tick(strategy, view):
    policy = strategy.policy
    now = view.now
    for cell in view.due_cells():
        if not policy.allows_now(cell.family.kind, now):
            continue  # retry next tick; no backoff growth for calendar
        if view.in_flight(cell.site) >= policy.max_concurrent_per_site:
            continue
        if policy.check_resources_first \
                and not view.resources_available(cell):
            view.defer(cell)
            continue
        view.launch(cell)
