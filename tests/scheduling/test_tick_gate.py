"""The indexed tick makes exactly the reference's decisions.

``DefaultStrategy.on_tick`` merges only the due runs of the scheduler's
index that the calendar gate and the per-site cap leave open, and asks
``policy.allows_now`` once per family kind per tick; the per-cell loop
over every cell that it replaced lives in ``policies_reference``.  Both
run ``tiny-smoke`` under a policy whose gate answers differently per kind
and counts its calls, while every ``TickView.launch``/``defer`` is
recorded: the two decision sequences must be equal, and production asks
at most once per kind per tick.  Caps of 1 to 3 builds per site, with and
without the resource check, make sites reach their cap in the middle of
a tick while they still have due cells.
"""

from collections import Counter
from dataclasses import dataclass, field

import pytest

from repro import run_scenario, scenarios
from repro.scheduling import DefaultStrategy, SchedulerPolicy
from repro.scheduling.launcher import TickView
from repro.util import HOUR, is_peak_hours

import policies_reference

_MONTHS = 0.05


@dataclass(frozen=True)
class _GatingPolicy(SchedulerPolicy):
    """Hardware runs off peak, software on even hours; records each ask."""

    asked: list = field(default_factory=list, compare=False)

    def allows_now(self, kind, t):
        self.asked.append((t, kind))
        if kind == "hardware":
            return not is_peak_hours(t)
        return int(t // HOUR) % 2 == 0


class _ReferenceStrategy(DefaultStrategy):
    on_tick = policies_reference.on_tick


def _decisions(monkeypatch, strategy_cls, seed, **knobs):
    decisions = []
    #: launches after which the site sat at its cap with cells still due
    capped_with_due = []
    policy = _GatingPolicy(**knobs)

    def recording(name):
        method = getattr(TickView, name)

        def wrapper(view, cell):
            decisions.append((view.now, name, view.cell_id(cell)))
            result = method(view, cell)
            if name == "launch" and \
                    view.in_flight(cell.site) >= policy.max_concurrent_per_site \
                    and any(c.site == cell.site for c in
                            policies_reference.due_scan(view.scheduler,
                                                        view.now)):
                capped_with_due.append(view.cell_id(cell))
            return result
        return wrapper

    with monkeypatch.context() as patch:
        for name in ("launch", "defer"):
            patch.setattr(TickView, name, recording(name))
        run_scenario(
            scenarios.get("tiny-smoke"), seed=seed, months=_MONTHS,
            on_builder=lambda b: b.with_extra(
                "scheduling_strategy", lambda _: strategy_cls(policy)))
    return decisions, policy.asked, capped_with_due


@pytest.mark.parametrize("seed", [0, 1])
def test_tick_gate_matches_reference_decisions(monkeypatch, seed):
    production, asked, _ = _decisions(monkeypatch, DefaultStrategy, seed)
    reference, reference_asked, _ = _decisions(monkeypatch,
                                               _ReferenceStrategy, seed)
    assert production == reference
    assert {name for _, name, _ in production} == {"launch", "defer"}
    # at most one ask per (tick, kind), and fewer than one per due cell
    assert max(Counter(asked).values()) == 1
    assert len(asked) < len(reference_asked)
    # the gate answered both ways for both kinds, so it was exercised
    policy = _GatingPolicy()
    answers = {(kind, policy.allows_now(kind, t)) for t, kind in asked}
    assert answers == {(k, a) for k in ("hardware", "software")
                       for a in (True, False)}


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_indexed_tick_matches_reference_under_caps(monkeypatch, cap, check):
    knobs = dict(max_concurrent_per_site=cap, check_resources_first=check)
    production, asked, capped = _decisions(monkeypatch, DefaultStrategy, 0,
                                           **knobs)
    reference, _, _ = _decisions(monkeypatch, _ReferenceStrategy, 0,
                                 **knobs)
    assert production == reference
    assert {name for _, name, _ in production} == \
        ({"launch", "defer"} if check else {"launch"})
    assert max(Counter(asked).values()) == 1
    # some launch brought a site to its cap while it still had due cells
    assert capped
