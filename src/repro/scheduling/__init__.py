"""External test scheduler: availability-aware triggering with policies."""

from .elastic import (
    CommonPoolStrategy,
    EasyBackfillStrategy,
    StealAgreementStrategy,
)
from .launcher import ExternalScheduler, TestCell, TickView
from .pernode import PerNodeVariant
from .policies import (
    Backoff,
    DefaultStrategy,
    SchedulerPolicy,
    SchedulingStrategy,
    get_strategy,
    register_strategy,
    strategy_names,
)

__all__ = [
    "SchedulerPolicy",
    "Backoff",
    "TestCell",
    "TickView",
    "ExternalScheduler",
    "SchedulingStrategy",
    "DefaultStrategy",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "EasyBackfillStrategy",
    "CommonPoolStrategy",
    "StealAgreementStrategy",
    "PerNodeVariant",
]
