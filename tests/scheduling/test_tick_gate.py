"""The per-kind calendar gate makes exactly the reference's decisions.

``DefaultStrategy.on_tick`` asks ``policy.allows_now`` once per family
kind per tick instead of once per due cell; the per-cell loop it replaced
lives in ``policies_reference``.  Both run ``tiny-smoke`` under a policy
whose gate answers differently per kind and counts its calls, while
every ``TickView.launch``/``defer`` is recorded: the two decision
sequences must be equal, and production asks at most once per kind per
tick.
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


def _decisions(monkeypatch, strategy_cls, seed):
    decisions = []
    policy = _GatingPolicy()

    def recording(name):
        method = getattr(TickView, name)

        def wrapper(view, cell):
            decisions.append((view.now, name, view.cell_id(cell)))
            return method(view, cell)
        return wrapper

    with monkeypatch.context() as patch:
        for name in ("launch", "defer"):
            patch.setattr(TickView, name, recording(name))
        run_scenario(
            scenarios.get("tiny-smoke"), seed=seed, months=_MONTHS,
            on_builder=lambda b: b.with_extra(
                "scheduling_strategy", lambda _: strategy_cls(policy)))
    return decisions, policy.asked


@pytest.mark.parametrize("seed", [0, 1])
def test_tick_gate_matches_reference_decisions(monkeypatch, seed):
    production, asked = _decisions(monkeypatch, DefaultStrategy, seed)
    reference, reference_asked = _decisions(monkeypatch, _ReferenceStrategy,
                                            seed)
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
